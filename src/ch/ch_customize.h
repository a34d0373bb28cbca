#ifndef ECOCHARGE_CH_CH_CUSTOMIZE_H_
#define ECOCHARGE_CH_CH_CUSTOMIZE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ch/ch_index.h"
#include "obs/metrics.h"

namespace ecocharge {

/// \brief Per-class weights of one query instant.
///
/// The derouting metric at time tau prices an edge at
/// `length / speed_factor(road_class, tau)` — three multipliers, one per
/// RoadClass. The traffic layer builds these from its congestion model;
/// `kChLengthWeights` is the uniform (pure length) metric used for
/// lower-bound ordering queries.
struct ChClassWeights {
  double w[kChNumClasses] = {1.0, 1.0, 1.0};
};

inline constexpr ChClassWeights kChLengthWeights{};

/// \brief One immutable customized weight plane of a ChIndex.
///
/// `cw_up[i]` / `cw_down[i]` are the customized costs of the index's arc
/// records under `weights`; `via_up[i]` / `via_down[i]` hold the middle
/// node realizing each priced arc (kInvalidNode = the original arc itself
/// is cheapest). A plane is write-once: the customizer fills it, then it
/// is shared read-only — queries keep a shared_ptr, so a plane outlives
/// any cache eviction while a search still reads it.
struct ChCustomization {
  ChClassWeights weights;
  std::vector<double> cw_up;
  std::vector<double> cw_down;
  std::vector<NodeId> via_up;
  std::vector<NodeId> via_down;
};

/// Metric-independent elimination-tree parents of `ch`: the lowest-ranked
/// far endpoint of each node's rows (kInvalidNode at the root). Shared by
/// ChQuery's batch spaces and ChProfileQuery's multi-plane spaces.
std::vector<NodeId> ChElimTreeParents(const ChIndex& ch);

/// One pending shortcut/arc expansion step (packed ref + forward
/// orientation endpoints).
struct ChUnpackItem {
  uint32_t ref;  ///< packed ChIndex arc reference
  NodeId from;   ///< arc tail in forward orientation
  NodeId to;     ///< arc head
};

/// Cheapest record of the (possibly parallel) run `v -> to` in v's up row
/// under `plane`; ties break on the first record. Mirrors the run-minima
/// collapse of the customization sweep, so expansion re-finds exactly the
/// records the sweep summed.
uint32_t ChMinUpRef(const ChIndex& ch, const ChCustomization& plane, NodeId v,
                    NodeId to);
/// Cheapest record of the run `from -> v` in v's down row (kDownBit set).
uint32_t ChMinDownRef(const ChIndex& ch, const ChCustomization& plane,
                      NodeId v, NodeId from);

/// Expands `item` into original EdgeIds (appended to `*out`, forward
/// order) by recursing through each priced arc's via node. `*stack` is
/// caller-owned LIFO scratch (cleared here), so warm calls allocate
/// nothing. Shared by ChQuery::UnpackPath/UnpackMeet and ChProfileQuery.
void ChExpandItem(const ChIndex& ch, const ChCustomization& plane,
                  const ChUnpackItem& item, std::vector<ChUnpackItem>* stack,
                  std::vector<EdgeId>* out);

/// \brief Prices a ChIndex for class-weight vectors: one pull kernel, one
/// level driver, full or incremental, bit-identical for any worker count.
///
/// The kernel (PullNode) is the pull formulation of the triangle closure:
/// every node owns the arc records in its own rows and *finalizes* them by
/// merging each lower neighbor's rows against its own. Writes touch only
/// owned rows and reads touch only rows of strictly lower contraction
/// *level* (level(v) = 1 + max level over lower neighbors), so all nodes of
/// one level price concurrently with a barrier between levels. Candidate
/// triangles apply in ascending apex rank with strict-< improvement, so
/// the output (costs and via assignments) is the same doubles for any
/// worker count.
///
/// Incremental re-pricing is the same kernel under a class mask. Every arc
/// carries the union of road classes of every arc participating in any of
/// its candidate triangles, transitively (the shortcut closure of its class
/// set). A weight delta confined to classes outside that mask leaves the
/// arc's cost and via bit-identical, so CustomizeFrom() copies the base
/// plane and re-prices only the records whose mask meets the changed
/// classes, riding the same level barriers. It falls back to a full sweep
/// when the dirty estimate exceeds half the arc records (or all three
/// classes moved).
///
/// The pull-side structures (levels, inverted lower-neighbor index, the
/// far-endpoint lanes, class masks) are metric-independent and built lazily
/// exactly once; a customizer is safe to share across threads as long as
/// concurrent Customize calls are externally serialized (the
/// ChCustomizationCache holds its build mutex across them).
class ChCustomizer {
 public:
  /// All three classes: the `changed` mask of a full sweep.
  static constexpr uint8_t kAllClasses = (1u << kChNumClasses) - 1;

  /// \param threads requested sweep workers; the driver runs
  ///   min(threads, hardware threads, widest level) of them, at least one.
  ///   One worker runs inline on the caller.
  explicit ChCustomizer(const ChIndex& ch, int threads = 1);

  /// Full customization of `weights`.
  std::shared_ptr<const ChCustomization> Customize(const ChClassWeights& weights);

  /// Re-customization from `base` (a fully customized plane) to `weights`.
  /// Incremental when the class delta is small, full otherwise;
  /// `*incremental` (optional) reports which path ran. Returns `base`
  /// itself when the weights are unchanged.
  std::shared_ptr<const ChCustomization> CustomizeFrom(
      std::shared_ptr<const ChCustomization> base, const ChClassWeights& weights,
      bool* incremental = nullptr);

  /// Workers a sweep runs with (the clamped thread request).
  int workers();

  /// Contraction levels (pull-side structure; built on first use).
  size_t num_levels();

  /// Arc records whose class-mask closure intersects `changed_mask` — the
  /// incremental sweep's work estimate (counted per record: only those
  /// records are re-priced, the rest keep the base plane's bits).
  size_t DirtyArcEstimate(uint8_t changed_mask);

  size_t total_arcs() const;

  /// Class-mask closure of one arc record (bit c = RoadClass c participates
  /// in some candidate realization). Exposed for tests.
  uint8_t UpArcMask(size_t i);
  uint8_t DownArcMask(size_t i);

 private:
  /// One inverted-adjacency entry: apex `x` plus where the owner's run
  /// starts in x's row (global arc index).
  struct LowerRef {
    NodeId x;
    uint32_t run;
  };

  /// Per-worker kernel scratch: the run heads of the current node's rows
  /// that the sweep re-prices.
  struct PullScratch {
    std::vector<uint32_t> heads_up;
    std::vector<uint32_t> heads_down;
  };

  void EnsurePull();   ///< levels, inverted index, far-endpoint lanes
  void EnsureMasks();  ///< class-mask closure + dirty estimates

  /// The level driver: runs PullNode over every node whose rows `changed`
  /// touches, level by level, on workers() workers.
  void Sweep(const ChClassWeights& weights, uint8_t changed,
             ChCustomization* plane);

  /// The kernel: re-initializes and finalizes the records of `l`'s rows
  /// whose class closure meets `changed` (every record for kAllClasses),
  /// reading only rows of lower levels. Clean records keep their bits.
  void PullNode(NodeId l, const ChClassWeights& weights, uint8_t changed,
                ChCustomization* plane, PullScratch* scratch) const;

  const ChIndex& ch_;
  int threads_;

  std::once_flag pull_once_;
  int workers_ = 1;
  std::vector<uint32_t> level_offsets_;  ///< CSR into level_order_
  std::vector<NodeId> level_order_;      ///< nodes grouped by level, rank asc
  std::vector<uint32_t> inv_up_offsets_;   ///< CSR: owner -> x's up-row runs
  std::vector<LowerRef> inv_up_entries_;   ///< arcs x -> owner (x's up row)
  std::vector<uint32_t> inv_down_offsets_; ///< CSR: owner -> x's down-row runs
  std::vector<LowerRef> inv_down_entries_; ///< arcs owner -> x (x's down row)
  /// Far endpoint of every arc record (ChArc::node), packed so the merge
  /// loops stream 4-byte ids instead of striding the 32-byte records.
  std::vector<NodeId> far_up_;
  std::vector<NodeId> far_down_;

  std::once_flag mask_once_;
  std::vector<uint8_t> mask_up_;    ///< per up-arc record class closure
  std::vector<uint8_t> mask_down_;  ///< per down-arc record class closure
  std::vector<uint8_t> node_mask_;  ///< OR of both rows per node
  size_t dirty_arcs_by_mask_[8] = {0};
};

/// \brief Shared per-bucket customization cache with RCU-style publication:
/// the one source of customized planes (ChQuery, DeroutingService and
/// ChProfileQuery lanes all fetch here).
///
/// Customized planes are immutable once built and a congestion bucket's
/// class weights are a pure function of the bucket, so N server workers
/// asking for the same bucket need exactly one sweep. Readers pin an
/// immutable snapshot of the plane table by copying one shared_ptr under
/// a tiny mutex held only for the refcount bump — the probe scan itself
/// runs lock-free on the snapshot (the WorldEpochs publish-without-
/// blocking idea, with reference counts standing in for the reader-pin
/// ring since planes are heavyweight);
/// writers copy, append, and publish under a single build mutex, which is
/// also what collapses a thundering herd of concurrent misses into one
/// build. The last built plane seeds the next build's incremental base, so
/// bucket-to-bucket deltas re-price only the touched class closure.
class ChCustomizationCache {
 public:
  /// \param threads forwarded to the internal ChCustomizer.
  /// \param max_planes retained planes; beyond it the oldest entry is
  ///   dropped (readers holding it keep it alive).
  explicit ChCustomizationCache(const ChIndex& ch, int threads = 1,
                                size_t max_planes = 64);

  /// The plane for `weights`: a published one when present, else built
  /// (once, however many workers ask concurrently) and published.
  /// `*built` (optional) reports whether THIS call ran the sweep — the
  /// per-worker customization counter's source of truth.
  std::shared_ptr<const ChCustomization> Get(const ChClassWeights& weights,
                                             bool* built = nullptr);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Sweeps actually run; misses() - builds() is the dedup win.
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }
  uint64_t incremental_builds() const {
    return incremental_.load(std::memory_order_relaxed);
  }
  size_t size() const;

  const ChIndex& index() const { return ch_; }

  /// Mirrors hit/miss/build counts onto `registry` under `ch.cache.*` and
  /// records build durations into `ch.customize_ns`; null detaches. Wire
  /// before traffic starts.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Detaches the mirrors if — and only if — they point into `registry`:
  /// the teardown of a registry's owner, which must not cut off a later
  /// owner that attached its own registry since.
  void DetachMetrics(const obs::MetricsRegistry* registry);

 private:
  struct Entry {
    uint64_t digest;
    std::shared_ptr<const ChCustomization> plane;
  };
  using Table = std::vector<Entry>;

  const ChIndex& ch_;
  size_t max_planes_;
  ChCustomizer customizer_;

  /// Publication point: readers copy the current immutable-table pointer
  /// under table_mu_ (held only for the refcounted copy — the scan itself
  /// is lock-free on the snapshot), writers swap in a copied successor.
  /// Deliberately NOT std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic
  /// releases its internal spinlock on the load path with a relaxed RMW,
  /// which leaves reader pointer-copies formally unordered against the
  /// next store — a data race TSan (correctly) reports under the chpar
  /// cache-hammer test. A plain mutex gives the same snapshot semantics
  /// with clean happens-before edges.
  std::shared_ptr<const Table> SnapshotTable() const;
  mutable std::mutex table_mu_;
  std::shared_ptr<const Table> table_;  // guarded by table_mu_
  std::mutex build_mu_;
  std::shared_ptr<const ChCustomization> last_built_;  // guarded by build_mu_

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> incremental_{0};

  const obs::MetricsRegistry* metrics_ = nullptr;  ///< attached registry
  obs::Counter* hits_mirror_ = nullptr;
  obs::Counter* misses_mirror_ = nullptr;
  obs::Counter* builds_mirror_ = nullptr;
  obs::Counter* incremental_mirror_ = nullptr;
  obs::Histogram* customize_ns_ = nullptr;
};

}  // namespace ecocharge

#endif  // ECOCHARGE_CH_CH_CUSTOMIZE_H_
