// Differential contract of the compiled kernel engine: with
// KnowledgeOptions::compiled_kernels on, every whole-space query must
// reproduce the sequential interpreter's verdicts byte for byte — at 1 and
// 4 threads — on canonicalized, lockstep (literal interleaving), and
// crash-fault spaces; for single sweeps and fused SatisfyingSets batches;
// and across Refresh() after Deepen/Ingest, which must invalidate the
// kernel program cache.  With kernels on, every whole-space query compiles
// except modalities over the empty process set (pinned by
// LoneModalRootCompilesAtOneThread); the differentials ask for each formula
// alone and in a two-root batch, which compiles a program of its own.
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/computation.h"
#include "core/faults.h"
#include "core/knowledge.h"
#include "core/random_system.h"
#include "protocols/lockstep.h"
#include "protocols/token_bus.h"

namespace hpl {
namespace {

KnowledgeOptions Config(int threads, bool kernels) {
  return {.num_threads = threads, .compiled_kernels = kernels};
}

// The battery covers every op the compiler emits: deep pure-boolean DAGs
// (the fused pointwise mode), singleton and group modalities (kKnowSeg with
// each quantifier), multi-process Everyone (kEveryoneSeg), common knowledge (kCkComponent), compile-time local-formula
// folds (modal child constant on the operator's view), runtime constant
// folds (tautological children), and the empty-group compile refusal that
// falls back to the interpreter.
std::vector<FormulaPtr> KernelFormulas(const FormulaPtr& a,
                                       const FormulaPtr& b, ProcessSet all) {
  const ProcessSet pair = ProcessSet::Of(0).Union(ProcessSet::Of(1));
  const FormulaPtr deep_bool = Formula::Implies(
      Formula::And(a, Formula::Or(Formula::Not(b), a)),
      Formula::Or(Formula::And(Formula::Not(a), b),
                  Formula::Not(Formula::And(a, Formula::Not(b)))));
  return {
      a,
      deep_bool,
      Formula::Knows(ProcessSet::Of(0), a),
      Formula::Knows(pair, a),  // distributed knowledge: [G]-row
      Formula::Knows(all, deep_bool),
      Formula::Sure(ProcessSet::Of(1), b),
      Formula::Sure(pair, Formula::Not(a)),
      Formula::Possible(ProcessSet::Of(0), Formula::Not(a)),
      Formula::Possible(pair, Formula::And(a, b)),
      Formula::Everyone(pair, a),
      Formula::Everyone(all, Formula::Or(a, b)),
      Formula::Common(pair, a),
      Formula::Common(all, Formula::Or(a, Formula::Not(a))),  // const fold
      Formula::Knows(ProcessSet::Of(0), Formula::Or(a, Formula::Not(a))),
      // Local-formula folds: the child is constant on the operator's view.
      Formula::Knows(ProcessSet::Of(0), Formula::Common(pair, a)),
      Formula::Sure(pair, Formula::Knows(ProcessSet::Of(0), a)),
      Formula::Everyone(pair, Formula::Common(pair, b)),
      // Nested modal over boolean glue.
      Formula::Knows(ProcessSet::Of(1),
                     Formula::And(Formula::Knows(ProcessSet::Of(0), a),
                                  Formula::Not(b))),
      // Empty-group modal: the compiler refuses, the evaluator falls back.
      Formula::Knows(ProcessSet(), a),
      Formula::Possible(ProcessSet(), Formula::Not(b)),
  };
}

bool IsEmptyGroupModal(const FormulaPtr& f) {
  switch (f->kind()) {
    case FormulaKind::kKnows:
    case FormulaKind::kSure:
    case FormulaKind::kPossible:
      return f->group().IsEmpty();
    default:
      return false;
  }
}

void ExpectKernelsMatchInterpreter(const ComputationSpace& space,
                                   const FormulaPtr& a, const FormulaPtr& b) {
  const auto battery = KernelFormulas(a, b, space.AllProcesses());
  // Reference: the sequential interpreted engine.
  KnowledgeEvaluator reference(space, Config(1, false));
  for (const int threads : {1, 4}) {
    // Kernels off runs the same sequential interpreter at any thread count.
    KnowledgeEvaluator interpreted(space, Config(threads, false));
    // Lone roots: one program per root.
    KnowledgeEvaluator lone(space, Config(threads, true));
    // Two-root batches {f, !f}: the same ops over a shared program, run in
    // the segmented mode whenever f is modal.
    KnowledgeEvaluator batched(space, Config(threads, true));
    for (const FormulaPtr& f : battery) {
      const auto expected = reference.SatisfyingSet(f);
      ASSERT_EQ(interpreted.SatisfyingSet(f), expected)
          << "interpreted diverged: " << f->ToString()
          << " threads=" << threads;
      ASSERT_EQ(lone.SatisfyingSet(f), expected)
          << "kernels diverged: " << f->ToString() << " threads=" << threads;
      ASSERT_EQ(lone.HoldsAll(f), interpreted.HoldsAll(f)) << f->ToString();
      // The empty-group modals make Compile refuse; they stay lone queries.
      if (IsEmptyGroupModal(f)) continue;
      const std::vector<FormulaPtr> pair = {f, Formula::Not(f)};
      const std::size_t programs_before =
          batched.MemoryUsage().kernel_programs;
      ASSERT_EQ(batched.SatisfyingSets(pair), reference.SatisfyingSets(pair))
          << "batched kernels diverged: " << f->ToString()
          << " threads=" << threads;
      // !f is a fresh root, so the batch compiled a program of its own.
      ASSERT_EQ(batched.MemoryUsage().kernel_programs, programs_before + 1)
          << "batch did not compile: " << f->ToString();
    }
    // Locality/constancy decisions ride the same planes.
    ASSERT_EQ(lone.IsConstant(battery[1]), reference.IsConstant(battery[1]));
    ASSERT_EQ(lone.IsLocalTo(a, ProcessSet::Of(0)),
              reference.IsLocalTo(a, ProcessSet::Of(0)));
  }
}

TEST(KnowledgeKernelTest, CanonicalizedSpaceMatchesInterpreter) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.seed = 29;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {});
  ASSERT_GE(space.size(), 128u);
  ExpectKernelsMatchInterpreter(space,
                                Formula::Atom(Predicate::Sent(0)),
                                Formula::Atom(Predicate::Received(1)));
}

TEST(KnowledgeKernelTest, LockstepSpaceMatchesInterpreter) {
  protocols::LockstepSystem lockstep(3);
  EnumerationLimits limits;
  limits.canonicalize = false;  // literal interleavings
  const auto space = ComputationSpace::Enumerate(lockstep, limits);
  ExpectKernelsMatchInterpreter(
      space, Formula::Atom(Predicate::CountOnAtLeast(0, 2)),
      Formula::Atom(Predicate::CountOnAtLeast(1, 1)));
}

TEST(KnowledgeKernelTest, CrashFaultSpaceMatchesInterpreter) {
  protocols::TokenBusSystem bus(3, 2);
  const CrashFaultSystem faulty(bus, {.max_crashes = 1, .may_crash = {}});
  EnumerationLimits limits;
  limits.max_depth = 5;
  limits.allow_truncation = true;
  const auto space = ComputationSpace::Enumerate(faulty, limits);
  ExpectKernelsMatchInterpreter(space, Formula::Atom(bus.HoldsToken(0)),
                                Formula::Atom(bus.HoldsToken(1)));
}

TEST(KnowledgeKernelTest, FusedBatchesAreByteIdentical) {
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 5;
  options.seed = 31;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {});
  // The empty-group modals would make Compile refuse the whole fused
  // program; the lone-query differentials cover them.
  std::vector<FormulaPtr> batch;
  for (const FormulaPtr& f : KernelFormulas(
           Formula::Atom(Predicate::Sent(0)),
           Formula::Atom(Predicate::Received(0)), space.AllProcesses()))
    if (!IsEmptyGroupModal(f)) batch.push_back(f);
  const std::span<const FormulaPtr> span(batch.data(), batch.size());
  KnowledgeEvaluator reference(space, Config(1, false));
  const auto expected = reference.SatisfyingSets(span);
  for (const int threads : {1, 4}) {
    KnowledgeEvaluator kernels(space, Config(threads, true));
    ASSERT_EQ(kernels.SatisfyingSets(span), expected)
        << "threads=" << threads;
    ASSERT_EQ(kernels.MemoryUsage().kernel_programs, 1u);
    // A repeat batch hits completed planes and the program cache.
    ASSERT_EQ(kernels.SatisfyingSets(span), expected);
  }
}

TEST(KnowledgeKernelTest, PointwiseHoldsInterleavesWithKernelSweeps) {
  RandomSystemOptions options;
  options.seed = 5;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  ASSERT_GE(space.size(), 128u);  // parallel threshold
  const FormulaPtr f = Formula::Knows(
      ProcessSet::Of(0),
      Formula::Or(Formula::Atom(Predicate::Sent(0)),
                  Formula::Atom(Predicate::Received(1))));
  KnowledgeEvaluator interpreted(space, Config(1, false));
  KnowledgeEvaluator kernels(space, Config(4, true));
  // Pointwise probes seed partial memo bits; the kernel sweep must respect
  // and complete them, and pointwise probes after it must hit the planes.
  for (const std::size_t id : {std::size_t{0}, space.size() / 2})
    ASSERT_EQ(kernels.Holds(f, id), interpreted.Holds(f, id));
  ASSERT_EQ(kernels.SatisfyingSet(f), interpreted.SatisfyingSet(f));
  EXPECT_GT(kernels.MemoryUsage().kernel_programs, 0u);
  for (std::size_t id = 0; id < space.size(); ++id)
    ASSERT_EQ(kernels.Holds(f, id), interpreted.Holds(f, id)) << id;
}

TEST(KnowledgeKernelTest, StructurallyEqualFormulasShareOneProgram) {
  RandomSystemOptions options;
  options.seed = 11;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  ASSERT_GE(space.size(), 128u);  // parallel threshold
  KnowledgeEvaluator eval(space, Config(4, true));
  // Two structurally equal roots built by different code paths: the
  // interner must collapse them onto one node, one sweep, one program.
  auto build = [] {
    return Formula::Knows(ProcessSet::Of(0),
                          Formula::And(Formula::Atom(Predicate::Sent(0)),
                                       Formula::Atom(Predicate::Received(1))));
  };
  const auto first = eval.SatisfyingSet(build());
  const auto stats_after_first = eval.MemoryUsage();
  ASSERT_GT(stats_after_first.kernel_programs, 0u);
  EXPECT_EQ(eval.SatisfyingSet(build()), first);
  const auto stats_after_second = eval.MemoryUsage();
  // The second sweep hit the completed plane: no new program was compiled.
  EXPECT_EQ(stats_after_second.kernel_programs,
            stats_after_first.kernel_programs);
  EXPECT_EQ(stats_after_second.kernel_ops, stats_after_first.kernel_ops);
}

// Refresh() after growth must drop compiled programs (the plane re-layout
// invalidates baked row/segment references) and keep verdicts identical to
// a fresh evaluator over the grown space.
TEST(KnowledgeKernelTest, RefreshAfterDeepenInvalidatesProgramCache) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  EnumerationLimits limits;
  limits.max_depth = 4;
  limits.allow_truncation = true;
  builder.Build(bus, limits);
  KnowledgeEvaluator eval(builder.space(), Config(1, true));
  const FormulaPtr f = Formula::Knows(
      ProcessSet::Of(0),
      Formula::Or(Formula::Atom(bus.HoldsToken(0)),
                  Formula::Atom(bus.HoldsToken(2))));
  // A two-root batch: one program for both roots.
  const std::vector<FormulaPtr> batch = {f, Formula::Not(f)};
  eval.SatisfyingSets(batch);
  ASSERT_GT(eval.MemoryUsage().kernel_programs, 0u);

  ASSERT_GT(builder.Deepen(1), 0u);
  eval.Refresh();
  EXPECT_EQ(eval.MemoryUsage().kernel_programs, 0u);

  KnowledgeEvaluator fresh(builder.space(), Config(1, true));
  KnowledgeEvaluator interpreted(builder.space(), Config(1, false));
  const auto expected = interpreted.SatisfyingSets(batch);
  EXPECT_EQ(eval.SatisfyingSets(batch), expected);
  EXPECT_EQ(fresh.SatisfyingSets(batch), expected);
  EXPECT_GT(eval.MemoryUsage().kernel_programs, 0u);  // recompiled
}

TEST(KnowledgeKernelTest, RefreshAfterIngestInvalidatesProgramCache) {
  protocols::TokenBusSystem bus(3, 2);
  SpaceBuilder builder;
  EnumerationLimits limits;
  limits.max_depth = 3;
  limits.allow_truncation = true;
  builder.Build(bus, limits);
  KnowledgeEvaluator eval(builder.space(), Config(1, true));
  const FormulaPtr f =
      Formula::Everyone(ProcessSet::Of(0).Union(ProcessSet::Of(1)),
                        Formula::Atom(bus.HoldsToken(0)));
  const std::vector<FormulaPtr> batch = {f, Formula::Not(f)};
  eval.SatisfyingSets(batch);
  ASSERT_GT(eval.MemoryUsage().kernel_programs, 0u);

  // Splice the system's lexicographically-first run, two levels past the
  // built depth, into the space.
  std::vector<Event> events;
  while (events.size() < 5) {
    const auto enabled =
        bus.EnabledEvents(Computation::TrustedFromEvents(events));
    if (enabled.empty()) break;
    events.push_back(enabled.front());
  }
  ASSERT_GT(builder.Ingest(std::span<const Event>(events)), 0u);

  eval.Refresh();
  EXPECT_EQ(eval.MemoryUsage().kernel_programs, 0u);
  KnowledgeEvaluator interpreted(builder.space(), Config(1, false));
  EXPECT_EQ(eval.SatisfyingSets(batch), interpreted.SatisfyingSets(batch));
}

// Dispatch: with kernels on, a lone modal root compiles at one thread as it
// does with a worker pool — atom planes no longer cost a materialization per
// class, so the kernel no longer loses to the short-circuiting interpreter —
// and so do pure-boolean roots and fused batches.
TEST(KnowledgeKernelTest, LoneModalRootCompilesAtOneThread) {
  RandomSystemOptions options;
  options.seed = 17;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  ASSERT_GE(space.size(), 128u);  // parallel threshold
  const FormulaPtr atom = Formula::Atom(Predicate::Sent(0));
  const FormulaPtr modal = Formula::Knows(ProcessSet::Of(0), atom);

  KnowledgeEvaluator lone(space, Config(1, true));
  KnowledgeEvaluator interpreted(space, Config(1, false));
  EXPECT_EQ(lone.SatisfyingSet(modal), interpreted.SatisfyingSet(modal));
  EXPECT_EQ(lone.MemoryUsage().kernel_programs, 1u);
  EXPECT_EQ(interpreted.MemoryUsage().kernel_programs, 0u);

  KnowledgeEvaluator boolean(space, Config(1, true));
  boolean.SatisfyingSet(Formula::And(atom, Formula::Not(atom)));
  EXPECT_EQ(boolean.MemoryUsage().kernel_programs, 1u);

  KnowledgeEvaluator fused(space, Config(1, true));
  const std::vector<FormulaPtr> batch = {modal,
                                         Formula::Sure(ProcessSet::Of(1), atom)};
  fused.SatisfyingSets(std::span<const FormulaPtr>(batch.data(), batch.size()));
  EXPECT_EQ(fused.MemoryUsage().kernel_programs, 1u);

  KnowledgeEvaluator parallel(space, Config(4, true));
  parallel.SatisfyingSet(modal);
  EXPECT_EQ(parallel.MemoryUsage().kernel_programs, 1u);
}

}  // namespace
}  // namespace hpl
