#include "graph/io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ch/ch_index.h"
#include "ch/contraction.h"
#include "graph/generators.h"
#include "graph/landmarks.h"
#include "graph/shortest_path.h"

namespace ecocharge {
namespace {

TEST(GraphIoTest, RoundTripPreservesStructure) {
  GridNetworkOptions opts;
  opts.nx = 6;
  opts.ny = 5;
  opts.seed = 4;
  auto original = MakeGridNetwork(opts).MoveValueUnsafe();

  std::stringstream buffer;
  ASSERT_TRUE(SaveRoadNetwork(*original, buffer).ok());
  auto loaded_result = LoadRoadNetwork(buffer);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status();
  auto loaded = loaded_result.MoveValueUnsafe();

  ASSERT_EQ(loaded->NumNodes(), original->NumNodes());
  ASSERT_EQ(loaded->NumEdges(), original->NumEdges());
  for (NodeId v = 0; v < original->NumNodes(); ++v) {
    EXPECT_EQ(loaded->NodePosition(v), original->NodePosition(v));
  }
  for (EdgeId e = 0; e < original->NumEdges(); ++e) {
    EXPECT_EQ(loaded->edge(e).from, original->edge(e).from);
    EXPECT_EQ(loaded->edge(e).to, original->edge(e).to);
    EXPECT_EQ(loaded->edge(e).length_m, original->edge(e).length_m);
    EXPECT_EQ(loaded->edge(e).road_class, original->edge(e).road_class);
  }
}

TEST(GraphIoTest, RoundTripPreservesShortestPaths) {
  GridNetworkOptions opts;
  opts.nx = 7;
  opts.ny = 7;
  auto original = MakeGridNetwork(opts).MoveValueUnsafe();
  std::stringstream buffer;
  ASSERT_TRUE(SaveRoadNetwork(*original, buffer).ok());
  auto loaded = LoadRoadNetwork(buffer).MoveValueUnsafe();

  DijkstraSearch s1(*original), s2(*loaded);
  EXPECT_DOUBLE_EQ(s1.ShortestPath(0, 48).cost, s2.ShortestPath(0, 48).cost);
}

TEST(GraphIoTest, RejectsBadMagic) {
  std::stringstream buffer("xyz 1\n1 0\n0 0\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsWrongVersion) {
  std::stringstream buffer("ecg 99\n1 0\n0 0\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsTruncatedNodes) {
  std::stringstream buffer("ecg 1\n3 0\n0 0\n1 1\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsTruncatedEdges) {
  std::stringstream buffer("ecg 1\n2 2\n0 0\n1 1\n0 1 10.0 0\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsInvalidRoadClass) {
  std::stringstream buffer("ecg 1\n2 1\n0 0\n1 1\n0 1 10.0 7\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, RejectsOutOfRangeEdge) {
  std::stringstream buffer("ecg 1\n2 1\n0 0\n1 1\n0 9 10.0 0\n");
  EXPECT_FALSE(LoadRoadNetwork(buffer).ok());
}

TEST(GraphIoTest, FileApiFailsOnMissingPath) {
  EXPECT_FALSE(LoadRoadNetworkFile("/no/such/file.ecg").ok());
}

// ---------------------------------------------------------------------------
// Binary snapshots.
// ---------------------------------------------------------------------------

std::shared_ptr<RoadNetwork> SampleNetwork() {
  GridNetworkOptions opts;
  opts.nx = 8;
  opts.ny = 7;
  opts.seed = 11;
  return MakeGridNetwork(opts).MoveValueUnsafe();
}

std::string SnapshotPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotTest, RoundTripPreservesStructure) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("roundtrip.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());

  auto loaded_result = LoadSnapshot(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status();
  auto loaded = loaded_result.MoveValueUnsafe();

  ASSERT_EQ(loaded->NumNodes(), original->NumNodes());
  ASSERT_EQ(loaded->NumEdges(), original->NumEdges());
  for (NodeId v = 0; v < original->NumNodes(); ++v) {
    EXPECT_EQ(loaded->NodePosition(v), original->NodePosition(v));
  }
  for (EdgeId e = 0; e < original->NumEdges(); ++e) {
    EXPECT_EQ(loaded->edge(e).from, original->edge(e).from);
    EXPECT_EQ(loaded->edge(e).to, original->edge(e).to);
    EXPECT_EQ(loaded->edge(e).length_m, original->edge(e).length_m);
    EXPECT_EQ(loaded->edge(e).road_class, original->edge(e).road_class);
  }
  EXPECT_EQ(loaded->Bounds().min.x, original->Bounds().min.x);
  EXPECT_EQ(loaded->Bounds().max.y, original->Bounds().max.y);
}

TEST(SnapshotTest, RoundTripPreservesQueries) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("queries.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  auto loaded = LoadSnapshot(path).MoveValueUnsafe();

  // Bit-identical shortest paths (same arrays, same iteration order).
  DijkstraSearch s1(*original), s2(*loaded);
  for (NodeId target : {NodeId{5}, NodeId{23}, NodeId{55}}) {
    EXPECT_EQ(s1.ShortestPath(0, target).cost,
              s2.ShortestPath(0, target).cost);
  }
  // The mmap-backed locator answers NearestNode identically.
  for (NodeId v = 0; v < original->NumNodes(); v += 7) {
    Point probe = original->NodePosition(v) + Point{13.0, -9.0};
    EXPECT_EQ(original->NearestNode(probe), loaded->NearestNode(probe));
  }
}

TEST(SnapshotTest, RoundTripPreservesLandmarks) {
  auto original = SampleNetwork();
  LandmarkIndex landmarks(*original, 3);
  std::string path = SnapshotPath("landmarks.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path, &landmarks).ok());

  auto loaded_result = LoadSnapshotWithLandmarks(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status();
  auto loaded = loaded_result.MoveValueUnsafe();
  ASSERT_NE(loaded.landmarks, nullptr);
  ASSERT_EQ(loaded.landmarks->num_landmarks(), landmarks.num_landmarks());
  EXPECT_EQ(loaded.landmarks->landmarks(), landmarks.landmarks());
  for (size_t i = 0; i < landmarks.num_landmarks(); ++i) {
    for (NodeId v = 0; v < original->NumNodes(); ++v) {
      EXPECT_EQ(loaded.landmarks->FromLandmark(i, v),
                landmarks.FromLandmark(i, v));
      EXPECT_EQ(loaded.landmarks->ToLandmark(i, v),
                landmarks.ToLandmark(i, v));
    }
  }
  EXPECT_EQ(loaded.landmarks->LowerBound(3, 50), landmarks.LowerBound(3, 50));
}

TEST(SnapshotTest, LoadWithoutLandmarksYieldsNull) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("nolandmarks.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  auto loaded = LoadSnapshotWithLandmarks(path).MoveValueUnsafe();
  EXPECT_NE(loaded.network, nullptr);
  EXPECT_EQ(loaded.landmarks, nullptr);
}

TEST(SnapshotTest, InfoReportsCountsAndSections) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("info.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());

  auto info_result = ReadSnapshotInfo(path);
  ASSERT_TRUE(info_result.ok()) << info_result.status();
  const SnapshotInfo& info = *info_result;
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.num_nodes, original->NumNodes());
  EXPECT_EQ(info.num_edges, original->NumEdges());
  EXPECT_EQ(info.num_landmarks, 0u);
  EXPECT_GT(info.file_bytes, 0u);
  EXPECT_GE(info.sections.size(), 8u);  // positions, 2x CSR, locator, ids
  EXPECT_EQ(info.bounds.min.x, original->Bounds().min.x);
}

TEST(SnapshotTest, RejectsCorruptMagic) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("badmagic.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(SnapshotTest, RejectsWrongVersion) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("badversion.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[8] = 99;  // version field follows the 8-byte magic
  WriteFileBytes(path, bytes);
  auto result = LoadSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(SnapshotTest, RejectsTruncatedFile) {
  auto original = SampleNetwork();
  std::string path = SnapshotPath("truncated.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  std::string bytes = ReadFileBytes(path);
  // Cut mid-section and mid-header: both must fail cleanly, not crash.
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(LoadSnapshot(path).ok());
  WriteFileBytes(path, bytes.substr(0, 16));
  EXPECT_FALSE(LoadSnapshot(path).ok());
}

TEST(SnapshotTest, RejectsMissingFile) {
  EXPECT_FALSE(LoadSnapshot("/no/such/snapshot.ecgs").ok());
  EXPECT_FALSE(ReadSnapshotInfo("/no/such/snapshot.ecgs").ok());
}

// ---------------------------------------------------------------------------
// Contraction-hierarchy sections.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, InfoReportsChAndLandmarkPresence) {
  auto original = SampleNetwork();
  LandmarkIndex landmarks(*original, 3);
  std::shared_ptr<ChIndex> ch = BuildChIndex(*original).MoveValueUnsafe();
  const ChSnapshotViews views = ToSnapshotViews(ch);

  std::string plain = SnapshotPath("info_plain.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, plain).ok());
  auto plain_info = ReadSnapshotInfo(plain).MoveValueUnsafe();
  EXPECT_FALSE(plain_info.has_ch);
  EXPECT_EQ(plain_info.ch_up_arcs, 0u);
  EXPECT_EQ(plain_info.num_landmarks, 0u);

  std::string full = SnapshotPath("info_full.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, full, &landmarks, &views).ok());
  auto info = ReadSnapshotInfo(full).MoveValueUnsafe();
  EXPECT_TRUE(info.has_ch);
  EXPECT_EQ(info.ch_up_arcs, ch->NumUpArcs());
  EXPECT_EQ(info.ch_down_arcs, ch->NumDownArcs());
  EXPECT_EQ(info.num_landmarks, 3u);
  // Every CH section shows up in the table with a known name.
  size_t ch_sections = 0;
  for (const auto& [id, bytes] : info.sections) {
    const std::string name = SnapshotSectionName(id);
    EXPECT_NE(name, "unknown") << "section id " << id;
    if (name.rfind("ch_", 0) == 0) ++ch_sections;
  }
  EXPECT_EQ(ch_sections, 5u);  // rank + two offset arrays + two arc arrays
}

TEST(SnapshotTest, ResaveOverOwnBackingFileIsSafe) {
  // `graph ch --in X --out X` loads a snapshot (mmap-backed views) and
  // saves the contracted result over the same path: the save must not
  // truncate the file its own source arrays are still mapped from.
  auto original = SampleNetwork();
  std::string path = SnapshotPath("resave_in_place.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());

  auto loaded = LoadSnapshotWithAux(path).MoveValueUnsafe();
  std::shared_ptr<ChIndex> ch = BuildChIndex(*loaded.network).MoveValueUnsafe();
  const ChSnapshotViews views = ToSnapshotViews(ch);
  ASSERT_TRUE(SaveSnapshot(*loaded.network, path, nullptr, &views).ok());

  auto reloaded = LoadSnapshotWithAux(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->network->NumNodes(), original->NumNodes());
  EXPECT_EQ(reloaded->network->NumEdges(), original->NumEdges());
  ASSERT_TRUE(reloaded->ch.has_value());
  auto adopted =
      ChIndexFromSnapshot(*reloaded->ch, reloaded->network->NumEdges());
  ASSERT_TRUE(adopted.ok()) << adopted.status();
  EXPECT_EQ((*adopted)->NumUpArcs(), ch->NumUpArcs());
}

TEST(SnapshotTest, RejectsTruncatedChSection) {
  auto original = SampleNetwork();
  std::shared_ptr<ChIndex> ch = BuildChIndex(*original).MoveValueUnsafe();
  const ChSnapshotViews views = ToSnapshotViews(ch);
  std::string path = SnapshotPath("truncated_ch.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path, nullptr, &views).ok());
  ASSERT_TRUE(LoadSnapshotWithAux(path).ok());  // intact file loads

  // Cut into the trailing CH arc section: the load must fail cleanly
  // instead of handing out-of-file views to the query kernel.
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 100));
  EXPECT_FALSE(LoadSnapshotWithAux(path).ok());
}

TEST(SnapshotTest, RejectsChArcBytesThatAreNotWholeRecords) {
  auto original = SampleNetwork();
  std::shared_ptr<ChIndex> ch = BuildChIndex(*original).MoveValueUnsafe();
  const ChSnapshotViews views = ToSnapshotViews(ch);
  std::string path = SnapshotPath("oddsize_ch.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path, nullptr, &views).ok());
  auto loaded = LoadSnapshotWithAux(path).MoveValueUnsafe();
  ASSERT_TRUE(loaded.ch.has_value());

  // A CH arc blob whose byte count is not a whole number of records must
  // be rejected by the rehydration validation, not reinterpreted.
  ChSnapshotViews corrupt = *loaded.ch;
  corrupt.up_arcs = corrupt.up_arcs.subspan(0, corrupt.up_arcs.size() - 1);
  EXPECT_FALSE(ChIndexFromSnapshot(corrupt, loaded.network->NumEdges()).ok());

  // Same for a rank array that no longer covers every node.
  ChSnapshotViews short_rank = *loaded.ch;
  short_rank.rank = short_rank.rank.subspan(0, short_rank.rank.size() - 1);
  EXPECT_FALSE(
      ChIndexFromSnapshot(short_rank, loaded.network->NumEdges()).ok());
}

TEST(SnapshotTest, RejectsChRankThatIsNotAPermutation) {
  auto original = SampleNetwork();
  std::shared_ptr<ChIndex> ch = BuildChIndex(*original).MoveValueUnsafe();
  const ChSnapshotViews views = ToSnapshotViews(ch);
  std::string path = SnapshotPath("duplicate_rank_ch.ecgs");
  ASSERT_TRUE(SaveSnapshot(*original, path, nullptr, &views).ok());

  // Overwrite node 1's rank with node 0's inside the file's rank section.
  const std::span<const uint32_t> rank = ch->rank_array();
  ASSERT_GE(rank.size(), 2u);
  std::string bytes = ReadFileBytes(path);
  const std::string rank_bytes(reinterpret_cast<const char*>(rank.data()),
                               rank.size_bytes());
  const size_t at = bytes.find(rank_bytes);
  ASSERT_NE(at, std::string::npos);
  std::memcpy(&bytes[at + sizeof(uint32_t)], &rank[0], sizeof(uint32_t));
  WriteFileBytes(path, bytes);

  auto loaded = LoadSnapshotWithAux(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->ch.has_value());
  auto adopted = ChIndexFromSnapshot(*loaded->ch, loaded->network->NumEdges());
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ(adopted.status().code(), StatusCode::kInvalidArgument)
      << adopted.status();
}

}  // namespace
}  // namespace ecocharge
