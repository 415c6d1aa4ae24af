// Move assignment over an engaged ComputationSpace.  The segmented columns
// hold raw pointers into their space's segment store, so assigning one
// space over another must let the old columns release their segments
// against the old store before that store is freed.  `hpl_cli bench` does
// exactly this in its repeat loop; the suite runs under ASan/UBSan with the
// rest of the core label.
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/random_system.h"
#include "core/serialization.h"
#include "protocols/tracker.h"

namespace hpl {
namespace {

std::string SnapshotBytes(const ComputationSpace& space) {
  std::ostringstream out;
  SaveSpaceSnapshot(space, out);
  return out.str();
}

EnumerationLimits BudgetLimits() {
  EnumerationLimits limits;
  limits.num_threads = 1;
  limits.segments.segment_shift = 4;
  limits.segments.residency_budget_bytes = 4096;
  return limits;
}

TEST(SpaceMoveTest, RepeatedAssignIntoEngagedOptional) {
  protocols::TrackerSystem system(/*flips=*/4);
  const std::string want = SnapshotBytes(ComputationSpace::Enumerate(system));
  for (const EnumerationLimits& limits : {EnumerationLimits{}, BudgetLimits()}) {
    std::optional<ComputationSpace> space;
    for (int rep = 0; rep < 3; ++rep)
      space = ComputationSpace::Enumerate(system, limits);
    EXPECT_EQ(SnapshotBytes(*space), want);
  }
}

TEST(SpaceMoveTest, AssignAcrossResidentAndBudgetBuiltSpaces) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.seed = 5;
  RandomSystem system(options);
  protocols::TrackerSystem other(/*flips=*/3);
  const std::string want = SnapshotBytes(ComputationSpace::Enumerate(system));

  // Budget-built over resident, then resident over budget-built: each
  // target's old store is freed while the source's spilled segments must
  // still fault in from the store that moved with them.
  ComputationSpace space = ComputationSpace::Enumerate(other);
  space = ComputationSpace::Enumerate(system, BudgetLimits());
  ASSERT_GT(space.SegmentStats().spill_writes, 0u);
  EXPECT_EQ(SnapshotBytes(space), want);
  space = ComputationSpace::Enumerate(other, BudgetLimits());
  space = ComputationSpace::Enumerate(system);
  EXPECT_EQ(SnapshotBytes(space), want);

  // A named source is left empty and still destructs cleanly.
  ComputationSpace source = ComputationSpace::Enumerate(system, BudgetLimits());
  space = std::move(source);
  EXPECT_EQ(SnapshotBytes(space), want);
  EXPECT_EQ(source.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace hpl
