// End-to-end smoke of the ecocharge_cli binary: `graph build` a small
// snapshot, `graph ch` it, and check the summary line reports BOTH
// preprocessing phases — contraction and customization — with their
// timing/stats. The CLI is the operational entry point; its summary format
// is what runbooks and the bench harness grep, so it gets a pinned test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace ecocharge {
namespace {

#ifndef ECOCHARGE_CLI_BIN
#define ECOCHARGE_CLI_BIN ""
#endif

/// Runs `cmd` (stderr folded into stdout), returning its output; exit
/// status lands in `*exit_code`.
std::string RunCommand(const std::string& cmd, int* exit_code) {
  std::string out;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return out;
  }
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  *exit_code = pclose(pipe);
  return out;
}

TEST(CliSmokeTest, GraphChSummaryReportsContractionAndCustomization) {
  const std::string bin = ECOCHARGE_CLI_BIN;
  if (bin.empty()) GTEST_SKIP() << "ecocharge_cli path not configured";

  const std::string dir = ::testing::TempDir();
  const std::string raw = dir + "/smoke_raw.ecgs";
  const std::string ch = dir + "/smoke_ch.ecgs";

  int code = 0;
  std::string out = RunCommand(bin +
                            " graph build --spec"
                            " \"type=grid;nx=20;ny=20;seed=3\" --out " +
                        raw, &code);
  ASSERT_EQ(code, 0) << out;
  ASSERT_NE(out.find("wrote"), std::string::npos) << out;

  out = RunCommand(bin + " graph ch --in " + raw + " --out " + ch +
            " --ch-threads 2", &code);
  ASSERT_EQ(code, 0) << out;
  // One line, both phases: "...; contracted in X s, ...; customized in
  // Y s (W workers, L levels, A arcs)". W is the request clamped to the
  // machine's hardware threads.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_NE(out.find("contracted in"), std::string::npos) << out;
  EXPECT_NE(out.find("customized in"), std::string::npos) << out;
  EXPECT_NE(out.find(std::to_string(std::min(2u, hw)) + " workers"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("levels"), std::string::npos) << out;
  EXPECT_NE(out.find("arcs"), std::string::npos) << out;
  EXPECT_NE(out.find("shortcuts"), std::string::npos) << out;
}

}  // namespace
}  // namespace ecocharge
