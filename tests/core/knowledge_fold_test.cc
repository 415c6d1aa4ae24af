// Differential contract of fold-form atom planes (predicate.h): a kernel
// sweep builds a fold-form atom's plane from one forward pass over the
// space's link column (ComputationSpace::CountPlane) instead of calling the
// predicate on materialized computations, and must reproduce the
// {num_threads = 1, compiled_kernels = false} interpreter — which calls the
// opaque functions on At(id) — byte for byte, at 1 and 4 threads.  Covered:
// every built-in predicate and each connective, on canonicalized, literal
// (canonicalize off), crash-fault, Ingest-grown and segment-budgeted
// spaces, across Deepen + Refresh, and with pointwise Holds probes seeding
// memo bits before the sweep.
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/computation.h"
#include "core/faults.h"
#include "core/knowledge.h"
#include "core/random_system.h"

namespace hpl {
namespace {

KnowledgeOptions Config(int threads, bool kernels) {
  return {.num_threads = threads, .compiled_kernels = kernels};
}

RandomSystem MakeRandom(std::uint64_t seed) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.seed = seed;
  return RandomSystem(options);
}

// Every built-in constructor and connective, over the random systems'
// alphabet: internal labels "i<p>_0", send labels "m<m>", and the crash
// label of crash-fault spaces.  Includes constant verdicts (k = 0, labels
// no event carries) and the one signed count (AllMessagesDelivered).
std::vector<Predicate> FoldPredicates() {
  const Predicate sent0 = Predicate::Sent(0);
  const Predicate received1 = Predicate::Received(1);
  const Predicate delivered = Predicate::AllMessagesDelivered();
  return {
      Predicate::True(),
      Predicate::False(),
      Predicate::CountOnAtLeast(0, 1),
      Predicate::CountOnAtLeast(1, 3),
      Predicate::CountOnAtLeast(2, 0),
      Predicate::DidInternal(0, "i0_0"),
      Predicate::DidInternal(1, "i0_0"),  // the label lives on process 0
      Predicate::HasLabel("m1"),
      Predicate::HasLabel(kCrashLabel),
      sent0,
      received1,
      delivered,
      !sent0,
      sent0 && received1,
      sent0 || received1,
      sent0.Implies(received1),
      !(delivered && Predicate::CountOnAtLeast(0, 2)) ||
          Predicate::True().Implies(Predicate::HasLabel("m0")),
  };
}

// Atom formulas of FoldPredicates(), plus modal roots over them so the
// batch runs in segmented mode (fold-form rows loaded before the op loop)
// as well as the fused pointwise mode of lone atom roots.
std::vector<FormulaPtr> AtomFormulas() {
  std::vector<FormulaPtr> out;
  for (const Predicate& p : FoldPredicates()) {
    EXPECT_NE(p.fold(), nullptr) << p.name();
    out.push_back(Formula::Atom(p));
  }
  return out;
}

void ExpectFoldedMatchReference(const ComputationSpace& space) {
  const std::vector<FormulaPtr> atoms = AtomFormulas();
  std::vector<FormulaPtr> batch = atoms;
  batch.push_back(Formula::Knows(ProcessSet::Of(0), atoms[9]));
  batch.push_back(Formula::Everyone(space.AllProcesses(), atoms[11]));
  batch.push_back(Formula::Common(ProcessSet::Of(0).Union(ProcessSet::Of(1)),
                                  atoms[13]));
  const std::span<const FormulaPtr> span(batch.data(), batch.size());

  KnowledgeEvaluator reference(space, Config(1, false));
  const auto expected = reference.SatisfyingSets(span);
  for (const int threads : {1, 4}) {
    // Lone atom roots: one fused pointwise program each.
    KnowledgeEvaluator lone(space, Config(threads, true));
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      ASSERT_EQ(lone.SatisfyingSet(atoms[i]), expected[i])
          << atoms[i]->ToString() << " threads=" << threads;
      ASSERT_EQ(lone.HoldsAll(atoms[i]), reference.HoldsAll(atoms[i]))
          << atoms[i]->ToString() << " threads=" << threads;
    }
    EXPECT_GT(lone.MemoryUsage().kernel_programs, 0u);

    // One batch with modal roots: the segmented mode.
    KnowledgeEvaluator batched(space, Config(threads, true));
    ASSERT_EQ(batched.SatisfyingSets(span), expected) << "threads=" << threads;

    // Pointwise probes first: some memo bits of every atom row are known
    // (from the opaque function) before the fold pass fills the row.
    KnowledgeEvaluator seeded(space, Config(threads, true));
    for (const FormulaPtr& f : batch)
      for (const std::size_t id : {std::size_t{0}, space.size() / 2,
                                   space.size() - 1})
        ASSERT_EQ(seeded.Holds(f, id), reference.Holds(f, id))
            << f->ToString() << " id=" << id;
    ASSERT_EQ(seeded.SatisfyingSets(span), expected) << "threads=" << threads;
  }
}

TEST(KnowledgeFoldTest, CanonicalizedSpaceMatchesReference) {
  const RandomSystem system = MakeRandom(29);
  const auto space = ComputationSpace::Enumerate(system, {});
  ASSERT_GE(space.size(), 128u);  // parallel threshold
  ExpectFoldedMatchReference(space);
}

TEST(KnowledgeFoldTest, LiteralSpaceMatchesReference) {
  const RandomSystem system = MakeRandom(3);
  EnumerationLimits limits;
  limits.canonicalize = false;  // literal interleavings
  limits.max_depth = 6;
  limits.allow_truncation = true;
  const auto space = ComputationSpace::Enumerate(system, limits);
  ASSERT_GE(space.size(), 128u);
  ExpectFoldedMatchReference(space);
}

TEST(KnowledgeFoldTest, CrashFaultSpaceMatchesReference) {
  const RandomSystem base = MakeRandom(5);
  const CrashFaultSystem faulty(base, {.max_crashes = 1, .may_crash = {}});
  EnumerationLimits limits;
  limits.max_depth = 6;
  limits.allow_truncation = true;
  const auto space = ComputationSpace::Enumerate(faulty, limits);
  ASSERT_GE(space.size(), 128u);
  ExpectFoldedMatchReference(space);
}

TEST(KnowledgeFoldTest, SegmentBudgetedSpaceMatchesReference) {
  const RandomSystem system = MakeRandom(11);
  EnumerationLimits limits;
  limits.max_depth = 7;
  limits.allow_truncation = true;
  limits.segments.segment_shift = 4;  // 16-class segments
  limits.segments.residency_budget_bytes = 4096;
  const auto space = ComputationSpace::Enumerate(system, limits);
  ASSERT_TRUE(space.out_of_core());
  ExpectFoldedMatchReference(space);
  EXPECT_GT(space.SegmentStats().spill_writes, 0u);
}

TEST(KnowledgeFoldTest, IngestGrownSpaceMatchesReference) {
  const RandomSystem system = MakeRandom(13);
  SpaceBuilder builder;
  EnumerationLimits limits;
  limits.max_depth = 4;
  limits.allow_truncation = true;
  builder.Build(system, limits);
  // Splice the lexicographically-first run, past the built depth.
  std::vector<Event> events;
  while (events.size() < 9) {
    const auto enabled =
        system.EnabledEvents(Computation::TrustedFromEvents(events));
    if (enabled.empty()) break;
    events.push_back(enabled.front());
  }
  ASSERT_GT(builder.Ingest(std::span<const Event>(events)), 0u);
  ExpectFoldedMatchReference(builder.space());
}

TEST(KnowledgeFoldTest, DeepenAndRefreshMatchReference) {
  const RandomSystem system = MakeRandom(17);
  EnumerationLimits limits;
  limits.max_depth = 4;
  limits.allow_truncation = true;
  const std::vector<FormulaPtr> atoms = AtomFormulas();
  std::vector<FormulaPtr> batch = atoms;
  batch.push_back(Formula::Knows(ProcessSet::Of(1), atoms[10]));
  const std::span<const FormulaPtr> span(batch.data(), batch.size());

  for (const int threads : {1, 4}) {
    SpaceBuilder grown;
    grown.Build(system, limits);
    KnowledgeEvaluator eval(grown.space(), Config(threads, true));
    {
      KnowledgeEvaluator reference(grown.space(), Config(1, false));
      ASSERT_EQ(eval.SatisfyingSets(span), reference.SatisfyingSets(span));
    }
    ASSERT_GT(grown.Deepen(2), 0u);
    eval.Refresh();
    KnowledgeEvaluator reference(grown.space(), Config(1, false));
    // A pointwise probe on a new class, then the refreshed sweep.
    const std::size_t last = grown.space().size() - 1;
    ASSERT_EQ(eval.Holds(batch.back(), last),
              reference.Holds(batch.back(), last));
    ASSERT_EQ(eval.SatisfyingSets(span), reference.SatisfyingSets(span))
        << "threads=" << threads;
  }
}

// The kernel load reads only the fold form: a fold-form atom whose opaque
// function counts its calls is never called by whole-space kernel sweeps,
// lone or batched, at any thread count — while pointwise Holds, which stays
// on the interpreter, does call it.
TEST(KnowledgeFoldTest, KernelLoadNeverCallsTheOpaqueFunction) {
  const RandomSystem system = MakeRandom(29);
  const auto space = ComputationSpace::Enumerate(system, {});
  std::atomic<int> calls{0};
  const Predicate sent0 = Predicate::Sent(0);
  const Predicate counted(
      "counted_sent0",
      [&calls, sent0](const Computation& x) {
        calls.fetch_add(1);
        return sent0.Eval(x);
      },
      Predicate::EventCount{
          .weight = [](const Event& e) {
            return e.IsSend() && e.message == 0 ? 1 : 0;
          },
          .cmp = Predicate::EventCount::Cmp::kAtLeast,
          .k = 1});
  ASSERT_NE(counted.fold(), nullptr);
  const FormulaPtr atom = Formula::Atom(counted);
  const FormulaPtr negated = Formula::Atom(!counted);
  const FormulaPtr modal = Formula::Knows(ProcessSet::Of(0), atom);

  KnowledgeEvaluator reference(space, Config(1, false));
  const auto expected_atom =
      reference.SatisfyingSet(Formula::Atom(Predicate::Sent(0)));
  const auto expected_negated =
      reference.SatisfyingSet(Formula::Atom(!Predicate::Sent(0)));
  const auto expected_modal = reference.SatisfyingSet(
      Formula::Knows(ProcessSet::Of(0), Formula::Atom(Predicate::Sent(0))));
  ASSERT_EQ(calls.load(), 0);

  for (const int threads : {1, 4}) {
    KnowledgeEvaluator kernels(space, Config(threads, true));
    EXPECT_EQ(kernels.SatisfyingSet(atom), expected_atom);
    EXPECT_EQ(kernels.SatisfyingSet(negated), expected_negated);
    const std::vector<FormulaPtr> batch = {modal, Formula::Not(modal)};
    EXPECT_EQ(kernels.SatisfyingSets(batch)[0], expected_modal);
    EXPECT_EQ(calls.load(), 0) << "threads=" << threads;
  }

  KnowledgeEvaluator pointwise(space, Config(1, true));
  pointwise.Holds(atom, space.size() - 1);
  EXPECT_EQ(calls.load(), 1);
}

// A connective with an opaque operand has no fold form, so its plane comes
// from the materialized computations — the one fallback.
TEST(KnowledgeFoldTest, OpaqueOperandFallsBackToMaterialization) {
  const RandomSystem system = MakeRandom(29);
  const auto space = ComputationSpace::Enumerate(system, {});
  const Predicate opaque("opaque_received1", [](const Computation& x) {
    return Predicate::Received(1).Eval(x);
  });
  const Predicate mixed = Predicate::Sent(0) && opaque;
  ASSERT_EQ(opaque.fold(), nullptr);
  ASSERT_EQ(mixed.fold(), nullptr);
  KnowledgeEvaluator reference(space, Config(1, false));
  const auto expected = reference.SatisfyingSet(Formula::Atom(
      Predicate::Sent(0) && Predicate::Received(1)));
  for (const int threads : {1, 4}) {
    KnowledgeEvaluator kernels(space, Config(threads, true));
    EXPECT_EQ(kernels.SatisfyingSet(Formula::Atom(mixed)), expected);
  }
}

TEST(KnowledgeFoldTest, CountPlaneRejectsOutOfRangeWeights) {
  const RandomSystem system = MakeRandom(29);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 3,
                                                          .allow_truncation =
                                                              true});
  std::vector<std::uint64_t> plane((space.size() + 63) / 64);
  const Predicate::EventCount too_heavy{
      .weight = [](const Event&) { return Predicate::kMaxWeight + 1; },
      .cmp = Predicate::EventCount::Cmp::kAtLeast,
      .k = 1};
  EXPECT_THROW(space.CountPlane(too_heavy, plane.data()), ModelError);
  const Predicate::EventCount heaviest{
      .weight = [](const Event&) { return -Predicate::kMaxWeight; },
      .cmp = Predicate::EventCount::Cmp::kEquals,
      .k = 0};
  space.CountPlane(heaviest, plane.data());
  EXPECT_EQ(plane[0] & 1, 1u);  // only the empty computation counts 0
  EXPECT_EQ(plane[0] & 2, 0u);
}

}  // namespace
}  // namespace hpl
