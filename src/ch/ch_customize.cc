#include "ch/ch_customize.h"

#include <algorithm>
#include <barrier>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <optional>
#include <span>
#include <thread>

#include "graph/shortest_path.h"

namespace ecocharge {

namespace {

double Dot(const double len[kChNumClasses], const ChClassWeights& w) {
  return len[0] * w.w[0] + len[1] * w.w[1] + len[2] * w.w[2];
}

bool SameWeights(const ChClassWeights& a, const ChClassWeights& b) {
  return a.w[0] == b.w[0] && a.w[1] == b.w[1] && a.w[2] == b.w[2];
}

/// Bitmask of classes whose weight differs between the two vectors.
uint8_t ChangedClasses(const ChClassWeights& a, const ChClassWeights& b) {
  uint8_t m = 0;
  for (int c = 0; c < kChNumClasses; ++c) {
    if (a.w[c] != b.w[c]) m |= static_cast<uint8_t>(1u << c);
  }
  return m;
}

uint8_t OrigMask(const ChArc& arc) {
  if (arc.orig == kChShortcutEdge) return 0;
  uint8_t m = 0;
  for (int c = 0; c < kChNumClasses; ++c) {
    if (arc.len[c] != 0.0) m |= static_cast<uint8_t>(1u << c);
  }
  return m;
}

}  // namespace

std::vector<NodeId> ChElimTreeParents(const ChIndex& ch) {
  const size_t n = ch.NumNodes();
  std::vector<NodeId> parent(n, kInvalidNode);
  // Every far endpoint of a node's rows outranks it, so the lowest-ranked
  // one is the elimination-tree parent; the chain to the root is strictly
  // rank-increasing.
  for (NodeId v = 0; v < n; ++v) {
    uint32_t best_rank = 0xFFFFFFFFu;
    NodeId best = kInvalidNode;
    for (const ChArc& a : ch.UpArcs(v)) {
      if (ch.rank(a.node) < best_rank) {
        best_rank = ch.rank(a.node);
        best = a.node;
      }
    }
    for (const ChArc& a : ch.DownArcs(v)) {
      if (ch.rank(a.node) < best_rank) {
        best_rank = ch.rank(a.node);
        best = a.node;
      }
    }
    parent[v] = best;
  }
  return parent;
}

uint32_t ChMinUpRef(const ChIndex& ch, const ChCustomization& plane, NodeId v,
                    NodeId to) {
  size_t k = ch.FindUpArc(v, to);
  assert(k != SIZE_MAX && "unpack: missing up arc");
  const auto up = ch.up_arcs();
  size_t best = k;
  for (size_t i = k + 1; i < ch.up_offsets()[v + 1] && up[i].node == to; ++i) {
    if (plane.cw_up[i] < plane.cw_up[best]) best = i;
  }
  return static_cast<uint32_t>(best);
}

uint32_t ChMinDownRef(const ChIndex& ch, const ChCustomization& plane,
                      NodeId v, NodeId from) {
  size_t k = ch.FindDownArc(v, from);
  assert(k != SIZE_MAX && "unpack: missing down arc");
  const auto down = ch.down_arcs();
  size_t best = k;
  for (size_t i = k + 1; i < ch.down_offsets()[v + 1] && down[i].node == from;
       ++i) {
    if (plane.cw_down[i] < plane.cw_down[best]) best = i;
  }
  return ChIndex::kDownBit | static_cast<uint32_t>(best);
}

void ChExpandItem(const ChIndex& ch, const ChCustomization& plane,
                  const ChUnpackItem& item, std::vector<ChUnpackItem>* stack,
                  std::vector<EdgeId>* out) {
  stack->clear();
  stack->push_back(item);
  while (!stack->empty()) {
    const ChUnpackItem it = stack->back();
    stack->pop_back();
    const NodeId via = (it.ref & ChIndex::kDownBit) != 0
                           ? plane.via_down[it.ref & ~ChIndex::kDownBit]
                           : plane.via_up[it.ref];
    if (via == kInvalidNode) {
      // Cheapest realization is the original arc itself.
      assert(ch.arc(it.ref).orig != kChShortcutEdge);
      out->push_back(ch.arc(it.ref).orig);
      continue;
    }
    // The via node sits below both endpoints, so the halves live in its own
    // rows: (from -> via) among its down arcs, (via -> to) among its up
    // arcs. Their customized costs are the ones the sweep summed, so
    // re-finding the cheapest records reproduces the priced path exactly.
    // LIFO: left half on top so it expands first.
    stack->push_back({ChMinUpRef(ch, plane, via, it.to), via, it.to});
    stack->push_back({ChMinDownRef(ch, plane, via, it.from), it.from, via});
  }
}

ChCustomizer::ChCustomizer(const ChIndex& ch, int threads)
    : ch_(ch), threads_(threads) {}

size_t ChCustomizer::total_arcs() const {
  return ch_.NumUpArcs() + ch_.NumDownArcs();
}

void ChCustomizer::EnsurePull() {
  std::call_once(pull_once_, [this] {
    const size_t n = ch_.NumNodes();
    const auto up = ch_.up_arcs();
    const auto down = ch_.down_arcs();
    const auto up_off = ch_.up_offsets();
    const auto down_off = ch_.down_offsets();
    std::vector<NodeId> order(n);  // rank -> node
    for (NodeId v = 0; v < n; ++v) order[ch_.rank(v)] = v;

    // Contraction levels: level(v) = 1 + max level over lower neighbors.
    // Walking nodes by ascending rank makes every propagation x -> f flow
    // from an already-final level (all of f's lower neighbors outrank-
    // precede f), so one pass suffices.
    std::vector<uint32_t> level_of(n, 0);
    uint32_t max_level = 0;
    for (NodeId x : order) {
      const uint32_t lx = level_of[x] + 1;
      for (uint32_t i = up_off[x]; i < up_off[x + 1]; ++i) {
        level_of[up[i].node] = std::max(level_of[up[i].node], lx);
      }
      for (uint32_t i = down_off[x]; i < down_off[x + 1]; ++i) {
        level_of[down[i].node] = std::max(level_of[down[i].node], lx);
      }
      max_level = std::max(max_level, level_of[x]);
    }
    // Nodes grouped by level, ascending rank inside each group (the fill
    // below walks ranks in order, so the counting sort is stable in rank).
    level_offsets_.assign(max_level + 2, 0);
    for (NodeId v = 0; v < n; ++v) ++level_offsets_[level_of[v] + 1];
    uint32_t widest = 0;
    for (size_t l = 1; l < level_offsets_.size(); ++l) {
      widest = std::max(widest, level_offsets_[l]);
      level_offsets_[l] += level_offsets_[l - 1];
    }
    level_order_.resize(n);
    std::vector<uint32_t> cursor(level_offsets_.begin(),
                                 level_offsets_.end() - 1);
    for (NodeId v : order) level_order_[cursor[level_of[v]]++] = v;

    // More workers than the machine has threads, or than the widest level
    // has nodes, only add barrier traffic.
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    workers_ = std::max(
        1, std::min({threads_, hw, static_cast<int>(std::max(1u, widest))}));

    far_up_.resize(up.size());
    far_down_.resize(down.size());
    for (size_t i = 0; i < up.size(); ++i) far_up_[i] = up[i].node;
    for (size_t i = 0; i < down.size(); ++i) far_down_[i] = down[i].node;

    // Inverted lower-neighbor index: for owner l, every apex x with an
    // l-run in its up row (arcs x -> l) or down row (arcs l -> x), plus
    // where that run starts. Filling by ascending rank of x leaves each
    // owner's entry list sorted by apex rank — the candidate application
    // order the kernel's strict-< tie-break rests on.
    inv_up_offsets_.assign(n + 1, 0);
    inv_down_offsets_.assign(n + 1, 0);
    const auto for_each_run = [](const NodeId* far, uint32_t begin,
                                 uint32_t end, auto&& fn) {
      for (uint32_t i = begin; i < end; ++i) {
        if (i == begin || far[i - 1] != far[i]) fn(far[i], i);
      }
    };
    for (NodeId x = 0; x < n; ++x) {
      for_each_run(far_up_.data(), up_off[x], up_off[x + 1],
                   [&](NodeId f, uint32_t) { ++inv_up_offsets_[f + 1]; });
      for_each_run(far_down_.data(), down_off[x], down_off[x + 1],
                   [&](NodeId f, uint32_t) { ++inv_down_offsets_[f + 1]; });
    }
    for (size_t v = 1; v <= n; ++v) {
      inv_up_offsets_[v] += inv_up_offsets_[v - 1];
      inv_down_offsets_[v] += inv_down_offsets_[v - 1];
    }
    inv_up_entries_.resize(inv_up_offsets_[n]);
    inv_down_entries_.resize(inv_down_offsets_[n]);
    std::vector<uint32_t> up_cursor(inv_up_offsets_.begin(),
                                    inv_up_offsets_.end() - 1);
    std::vector<uint32_t> down_cursor(inv_down_offsets_.begin(),
                                      inv_down_offsets_.end() - 1);
    for (NodeId x : order) {
      for_each_run(far_up_.data(), up_off[x], up_off[x + 1],
                   [&](NodeId f, uint32_t i) {
                     inv_up_entries_[up_cursor[f]++] = {x, i};
                   });
      for_each_run(far_down_.data(), down_off[x], down_off[x + 1],
                   [&](NodeId f, uint32_t i) {
                     inv_down_entries_[down_cursor[f]++] = {x, i};
                   });
    }
  });
}

int ChCustomizer::workers() {
  EnsurePull();
  return workers_;
}

size_t ChCustomizer::num_levels() {
  EnsurePull();
  return level_offsets_.size() - 1;
}

void ChCustomizer::EnsureMasks() {
  std::call_once(mask_once_, [this] {
    EnsurePull();
    const size_t n = ch_.NumNodes();
    const auto up = ch_.up_arcs();
    const auto down = ch_.down_arcs();
    const auto up_off = ch_.up_offsets();
    const auto down_off = ch_.down_offsets();
    mask_up_.resize(up.size());
    mask_down_.resize(down.size());
    for (size_t i = 0; i < up.size(); ++i) mask_up_[i] = OrigMask(up[i]);
    for (size_t i = 0; i < down.size(); ++i) mask_down_[i] = OrigMask(down[i]);

    // Closure sweep: the mask analogue of customization. The cost sweep
    // takes a min over candidate triangles; which candidate wins depends on
    // the weights, so the mask is the union over ALL candidates (every
    // record of both contributing runs). Processing owners level by level
    // (every apex sits on a lower level than the owner) closes the union
    // transitively: an arc's final mask covers the
    // classes of every arc reachable through any realization of it.
    // Run ORs are bounded by the owning row's end: a run never spans rows
    // even when adjacent rows happen to end/start with the same neighbor.
    const auto or_down_run = [&](uint32_t i, uint32_t row_end) {
      const NodeId f = down[i].node;
      uint8_t m = 0;
      for (; i < row_end && down[i].node == f; ++i) m |= mask_down_[i];
      return m;
    };
    const auto or_up_run = [&](uint32_t i, uint32_t row_end) {
      const NodeId f = up[i].node;
      uint8_t m = 0;
      for (; i < row_end && up[i].node == f; ++i) m |= mask_up_[i];
      return m;
    };
    for (const NodeId l : level_order_) {
      // Up-arc targets (l -> h): candidates need apex x with l in its down
      // row and h in its up row.
      for (uint32_t e = inv_down_offsets_[l]; e < inv_down_offsets_[l + 1];
           ++e) {
        const LowerRef& lr = inv_down_entries_[e];
        const uint8_t via_mask = or_down_run(lr.run, down_off[lr.x + 1]);
        uint32_t k = up_off[l];
        const uint32_t kend = up_off[l + 1];
        uint32_t j = up_off[lr.x];
        const uint32_t jend = up_off[lr.x + 1];
        while (k < kend && j < jend) {
          if (up[k].node < up[j].node) {
            const NodeId h = up[k].node;
            for (; k < kend && up[k].node == h; ++k) {
            }
          } else if (up[j].node < up[k].node) {
            const NodeId h = up[j].node;
            for (; j < jend && up[j].node == h; ++j) {
            }
          } else {
            const NodeId h = up[k].node;
            mask_up_[k] |= static_cast<uint8_t>(via_mask | or_up_run(j, jend));
            for (; k < kend && up[k].node == h; ++k) {
            }
            for (; j < jend && up[j].node == h; ++j) {
            }
          }
        }
      }
      // Down-arc targets (h -> l): candidates need apex x with l in its up
      // row and h in its down row.
      for (uint32_t e = inv_up_offsets_[l]; e < inv_up_offsets_[l + 1]; ++e) {
        const LowerRef& lr = inv_up_entries_[e];
        const uint8_t via_mask = or_up_run(lr.run, up_off[lr.x + 1]);
        uint32_t k = down_off[l];
        const uint32_t kend = down_off[l + 1];
        uint32_t j = down_off[lr.x];
        const uint32_t jend = down_off[lr.x + 1];
        while (k < kend && j < jend) {
          if (down[k].node < down[j].node) {
            const NodeId h = down[k].node;
            for (; k < kend && down[k].node == h; ++k) {
            }
          } else if (down[j].node < down[k].node) {
            const NodeId h = down[j].node;
            for (; j < jend && down[j].node == h; ++j) {
            }
          } else {
            const NodeId h = down[k].node;
            mask_down_[k] |=
                static_cast<uint8_t>(via_mask | or_down_run(j, jend));
            for (; k < kend && down[k].node == h; ++k) {
            }
            for (; j < jend && down[j].node == h; ++j) {
            }
          }
        }
      }
    }

    // Per-node row masks (the cheap whole-node skip) and the per-delta
    // dirty-work estimates, counted per record — an incremental sweep
    // re-prices exactly the records whose closure intersects the delta.
    node_mask_.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      uint8_t m = 0;
      for (uint32_t i = up_off[v]; i < up_off[v + 1]; ++i) m |= mask_up_[i];
      for (uint32_t i = down_off[v]; i < down_off[v + 1]; ++i) {
        m |= mask_down_[i];
      }
      node_mask_[v] = m;
    }
    for (uint8_t delta = 1; delta <= kAllClasses; ++delta) {
      size_t dirty = 0;
      for (uint8_t m : mask_up_) dirty += (m & delta) != 0;
      for (uint8_t m : mask_down_) dirty += (m & delta) != 0;
      dirty_arcs_by_mask_[delta] = dirty;
    }
  });
}

size_t ChCustomizer::DirtyArcEstimate(uint8_t changed_mask) {
  EnsureMasks();
  return dirty_arcs_by_mask_[changed_mask & kAllClasses];
}

uint8_t ChCustomizer::UpArcMask(size_t i) {
  EnsureMasks();
  return mask_up_[i];
}

uint8_t ChCustomizer::DownArcMask(size_t i) {
  EnsureMasks();
  return mask_down_[i];
}

namespace {

/// One direction's arc rows as the kernel sees them.
struct PullRows {
  const uint32_t* off;  ///< CSR row offsets
  const NodeId* far;    ///< far-endpoint lane
  double* cw;           ///< plane costs
  NodeId* via;          ///< plane via nodes
};

/// Resets the records of [begin, end) that `changed` touches to their
/// original-arc cost (shortcuts start unpriced) and appends the run heads
/// among them to `*heads`. Only run heads are ever relaxed, so a reset
/// non-head record is final here. `mask` null = every record.
void ResetRecords(std::span<const ChArc> arcs, const uint8_t* mask,
                  uint8_t changed, const ChClassWeights& weights,
                  uint32_t begin, uint32_t end, const PullRows& rows,
                  std::vector<uint32_t>* heads) {
  heads->clear();
  for (uint32_t i = begin; i < end; ++i) {
    if (mask != nullptr && (mask[i] & changed) == 0) continue;
    rows.cw[i] = arcs[i].orig == kChShortcutEdge ? kInfiniteCost
                                                 : Dot(arcs[i].len, weights);
    rows.via[i] = kInvalidNode;
    if (i == begin || rows.far[i - 1] != rows.far[i]) heads->push_back(i);
  }
}

/// Relaxes the owner `l`'s `heads` in `own` against every apex of `inv`.
/// An apex x closes a triangle over l's arc (l, h) with one leg in x's
/// `leg` row (its l-run, starting at the entry's `run`) and the other in
/// x's `own` row (its h-run). Each run collapses to its minimum first —
/// min(a_i + b_j) separates into min(a) + min(b), the same double bit for
/// bit — and the targets are found by merging the sorted rows. Apexes
/// arrive in ascending rank and improvements are strict, so the lowest
/// apex wins ties whatever the worker count.
template <typename LowerRef>
void RelaxHeads(NodeId l, const std::vector<uint32_t>& heads,
                const LowerRef* inv, const LowerRef* inv_end,
                const PullRows& leg, const PullRows& own) {
  if (heads.empty()) return;
  const size_t num_heads = heads.size();
  for (; inv != inv_end; ++inv) {
    const NodeId x = inv->x;
    double leg_cost = kInfiniteCost;
    for (uint32_t i = inv->run; i < leg.off[x + 1] && leg.far[i] == l; ++i) {
      leg_cost = std::min(leg_cost, leg.cw[i]);
    }
    if (!(leg_cost < kInfiniteCost)) continue;
    size_t t = 0;
    uint32_t j = own.off[x];
    const uint32_t jend = own.off[x + 1];
    while (t < num_heads && j < jend) {
      const uint32_t k = heads[t];
      const NodeId h = own.far[k];
      const NodeId hj = own.far[j];
      if (h < hj) {
        ++t;
      } else if (hj < h) {
        ++j;
      } else {
        double other = own.cw[j];
        for (++j; j < jend && own.far[j] == h; ++j) {
          other = std::min(other, own.cw[j]);
        }
        if (other < kInfiniteCost) {
          const double cost = leg_cost + other;
          if (cost < own.cw[k]) {
            own.cw[k] = cost;
            own.via[k] = x;
          }
        }
        ++t;
      }
    }
  }
}

}  // namespace

void ChCustomizer::PullNode(NodeId l, const ChClassWeights& weights,
                            uint8_t changed, ChCustomization* plane,
                            PullScratch* scratch) const {
  const bool all = changed == kAllClasses;
  const PullRows up{ch_.up_offsets().data(), far_up_.data(),
                    plane->cw_up.data(), plane->via_up.data()};
  const PullRows down{ch_.down_offsets().data(), far_down_.data(),
                      plane->cw_down.data(), plane->via_down.data()};
  ResetRecords(ch_.up_arcs(), all ? nullptr : mask_up_.data(), changed,
               weights, up.off[l], up.off[l + 1], up, &scratch->heads_up);
  ResetRecords(ch_.down_arcs(), all ? nullptr : mask_down_.data(), changed,
               weights, down.off[l], down.off[l + 1], down,
               &scratch->heads_down);
  // Up arcs (l -> h): apexes with l in their down row (leg l -> x) and h
  // in their up row (leg x -> h). Down arcs (h -> l): apexes with l in
  // their up row (leg x -> l) and h in their down row (leg h -> x).
  const LowerRef* inv_down = inv_down_entries_.data();
  const LowerRef* inv_up = inv_up_entries_.data();
  RelaxHeads(l, scratch->heads_up, inv_down + inv_down_offsets_[l],
             inv_down + inv_down_offsets_[l + 1], down, up);
  RelaxHeads(l, scratch->heads_down, inv_up + inv_up_offsets_[l],
             inv_up + inv_up_offsets_[l + 1], up, down);
}

void ChCustomizer::Sweep(const ChClassWeights& weights, uint8_t changed,
                         ChCustomization* plane) {
  EnsurePull();
  const size_t num_levels = level_offsets_.size() - 1;
  const int workers = workers_;
  std::optional<std::barrier<>> barrier;
  if (workers > 1) barrier.emplace(workers);
  auto worker_fn = [&](int w) {
    PullScratch scratch;
    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
      const uint32_t begin = level_offsets_[lvl];
      const uint32_t span = level_offsets_[lvl + 1] - begin;
      // Contiguous per-worker chunk: writes are confined to owned rows, so
      // any disjoint partition is race-free and bit-identical.
      const uint32_t lo = begin + static_cast<uint32_t>(
                                      static_cast<uint64_t>(span) * w / workers);
      const uint32_t hi =
          begin + static_cast<uint32_t>(static_cast<uint64_t>(span) * (w + 1) /
                                        workers);
      for (uint32_t i = lo; i < hi; ++i) {
        const NodeId l = level_order_[i];
        if (changed != kAllClasses && (node_mask_[l] & changed) == 0) continue;
        PullNode(l, weights, changed, plane, &scratch);
      }
      // Level lvl + 1 reads what every worker just wrote.
      if (barrier) barrier->arrive_and_wait();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(worker_fn, w);
  worker_fn(0);
  for (std::thread& t : pool) t.join();
}

std::shared_ptr<const ChCustomization> ChCustomizer::Customize(
    const ChClassWeights& weights) {
  auto plane = std::make_shared<ChCustomization>();
  plane->weights = weights;
  plane->cw_up.resize(ch_.NumUpArcs());
  plane->cw_down.resize(ch_.NumDownArcs());
  plane->via_up.resize(ch_.NumUpArcs());
  plane->via_down.resize(ch_.NumDownArcs());
  Sweep(weights, kAllClasses, plane.get());
  return plane;
}

std::shared_ptr<const ChCustomization> ChCustomizer::CustomizeFrom(
    std::shared_ptr<const ChCustomization> base, const ChClassWeights& weights,
    bool* incremental) {
  if (incremental != nullptr) *incremental = false;
  if (base == nullptr) return Customize(weights);
  const uint8_t changed = ChangedClasses(base->weights, weights);
  if (changed == 0) return base;
  // A full-vector delta dirties everything; skip the mask machinery (and
  // its one-time build) entirely.
  if (changed == kAllClasses) return Customize(weights);
  // When the dirty records cover most of the plane the copy + per-record
  // skip checks only add overhead, so hand off to the full sweep.
  if (2 * DirtyArcEstimate(changed) > total_arcs()) return Customize(weights);
  // Clean records keep `base`'s bits, which equal what a full sweep under
  // the new weights would produce (every quantity entering a clean arc's
  // min is mask-invariant); dirty records are recomputed from scratch and
  // their candidate scans read a mix of clean (unchanged, valid) and lower
  // dirty (already re-priced) rows — so the result is bit-identical to
  // Customize().
  auto plane = std::make_shared<ChCustomization>(*base);
  plane->weights = weights;
  Sweep(weights, changed, plane.get());
  if (incremental != nullptr) *incremental = true;
  return plane;
}

ChCustomizationCache::ChCustomizationCache(const ChIndex& ch, int threads,
                                           size_t max_planes)
    : ch_(ch),
      max_planes_(std::max<size_t>(1, max_planes)),
      customizer_(ch, threads),
      table_(std::make_shared<const Table>()) {}

namespace {

uint64_t WeightsDigest(const ChClassWeights& w) {
  // splitmix64 over the raw bit patterns; exact-equality verification on
  // probe makes collisions harmless (they only force a second compare).
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (int c = 0; c < kChNumClasses; ++c) {
    uint64_t x = std::bit_cast<uint64_t>(w.w[c]);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    h = (h ^ x) * 0xFF51AFD7ED558CCDull;
  }
  return h;
}

}  // namespace

std::shared_ptr<const ChCustomizationCache::Table>
ChCustomizationCache::SnapshotTable() const {
  std::lock_guard<std::mutex> lock(table_mu_);
  return table_;  // copy under the lock; callers scan the snapshot lock-free
}

std::shared_ptr<const ChCustomization> ChCustomizationCache::Get(
    const ChClassWeights& weights, bool* built) {
  if (built != nullptr) *built = false;
  const uint64_t digest = WeightsDigest(weights);
  // Read path: one short-critical-section pointer copy pins an immutable
  // table snapshot (publication can proceed concurrently; this reader keeps
  // its snapshot and the planes inside it alive by refcount).
  {
    std::shared_ptr<const Table> snap = SnapshotTable();
    for (const Entry& e : *snap) {
      if (e.digest == digest && SameWeights(e.plane->weights, weights)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (hits_mirror_ != nullptr) hits_mirror_->Add();
        return e.plane;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (misses_mirror_ != nullptr) misses_mirror_->Add();
  // Build path: one mutex serializes builds, so concurrent misses for the
  // same bucket collapse into a single sweep — the (N-1)/N dedup.
  std::lock_guard<std::mutex> lock(build_mu_);
  std::shared_ptr<const Table> snap = SnapshotTable();
  for (const Entry& e : *snap) {
    if (e.digest == digest && SameWeights(e.plane->weights, weights)) {
      return e.plane;  // someone built it while we waited
    }
  }
  bool incremental = false;
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const ChCustomization> plane =
      customizer_.CustomizeFrom(last_built_, weights, &incremental);
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  builds_.fetch_add(1, std::memory_order_relaxed);
  if (builds_mirror_ != nullptr) builds_mirror_->Add();
  if (customize_ns_ != nullptr) customize_ns_->Record(ns);
  if (incremental) {
    incremental_.fetch_add(1, std::memory_order_relaxed);
    if (incremental_mirror_ != nullptr) incremental_mirror_->Add();
  }
  last_built_ = plane;
  if (built != nullptr) *built = true;
  // Publish: copy-on-write successor table (oldest-first eviction keeps the
  // table bounded; evicted planes stay alive while any reader holds them).
  auto next = std::make_shared<Table>(*snap);
  next->push_back({digest, plane});
  if (next->size() > max_planes_) next->erase(next->begin());
  {
    std::lock_guard<std::mutex> publish(table_mu_);
    table_ = std::shared_ptr<const Table>(std::move(next));
  }
  return plane;
}

size_t ChCustomizationCache::size() const { return SnapshotTable()->size(); }

void ChCustomizationCache::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    hits_mirror_ = nullptr;
    misses_mirror_ = nullptr;
    builds_mirror_ = nullptr;
    incremental_mirror_ = nullptr;
    customize_ns_ = nullptr;
    return;
  }
  hits_mirror_ = registry->GetCounter("ch.cache.hits", "plane fetches");
  misses_mirror_ = registry->GetCounter("ch.cache.misses", "plane fetches");
  builds_mirror_ = registry->GetCounter("ch.cache.builds", "sweeps");
  incremental_mirror_ =
      registry->GetCounter("ch.customize_incremental", "sweeps");
  customize_ns_ = registry->GetHistogram("ch.customize_ns", "ns");
}

void ChCustomizationCache::DetachMetrics(
    const obs::MetricsRegistry* registry) {
  if (registry != nullptr && registry == metrics_) AttachMetrics(nullptr);
}

}  // namespace ecocharge
