// Determinism contract of the [G]-class memo tier: for multi-process Knows
// / Sure / Possible the quantifier ranges exactly over the [G]-bucket, and
// Everyone's conjunction is constant on the [G]-class, so memoizing per
// (node, [G]-class) — and building CK components over contracted
// [G]-classes — must give the same answers on both engines: compiled
// kernels at 1 and 4 worker threads reproduce the sequential interpreter
// (compiled_kernels off, 1 thread) byte for byte — satisfying sets, batch
// Holds, pointwise Holds, and CK component labels — on a canonicalized
// space and a lockstep (non-canonicalized) one, including nested
// Everyone(G, Knows(p, f)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "protocols/lockstep.h"

namespace hpl {
namespace {

std::vector<FormulaPtr> GroupTierFormulas(const ComputationSpace& space,
                                          const Predicate& atom) {
  const ProcessSet all = space.AllProcesses();
  const ProcessSet pair{0, 1};
  FormulaPtr a = Formula::Atom(atom);
  return {
      // The tier's direct targets: multi-process modalities ...
      Formula::Knows(pair, a),
      Formula::Knows(all, a),
      Formula::Sure(pair, a),
      Formula::Possible(pair, Formula::Not(a)),
      Formula::Everyone(pair, a),
      Formula::Everyone(all, a),
      // ... nested, so [G]-bucket sweeps trigger from inside other sweeps
      // (the issue's Everyone(G, Knows(p, f)) differential) ...
      Formula::Everyone(pair, Formula::Knows(ProcessSet{0}, a)),
      Formula::Knows(pair, Formula::Everyone(all, a)),
      Formula::Knows(ProcessSet{1}, Formula::Knows(pair, a)),
      Formula::Not(Formula::Knows(all, a)),
      // ... and mixed with singleton-tier and CK nodes, whose paths must
      // stay intact.
      Formula::Knows(ProcessSet{0}, a),
      Formula::Common(all, a),
      Formula::Implies(Formula::Knows(pair, a), Formula::Everyone(pair, a)),
  };
}

// Brute-force references, independent of both engines and of the tier:
// K{G} a by scanning the whole [G]-relation of every class, and CK{G}
// component labels (smallest member id) by min-label propagation over
// every member's [p]-buckets until nothing changes.
std::vector<std::size_t> BruteForceKnows(const ComputationSpace& space,
                                         ProcessSet g, const Predicate& atom) {
  std::vector<char> holds(space.size());
  for (std::size_t id = 0; id < space.size(); ++id)
    holds[id] = atom.Eval(space.At(id));
  std::vector<std::size_t> out;
  for (std::size_t id = 0; id < space.size(); ++id) {
    bool all = true;
    space.ForEachIsomorphicWhile(id, g, [&](std::size_t y) {
      all = holds[y] != 0;
      return all;
    });
    if (all) out.push_back(id);
  }
  return out;
}

std::vector<std::uint32_t> BruteForceComponents(const ComputationSpace& space,
                                                ProcessSet g) {
  std::vector<std::uint32_t> label(space.size());
  for (std::size_t id = 0; id < space.size(); ++id)
    label[id] = static_cast<std::uint32_t>(id);
  for (bool changed = true; changed;) {
    changed = false;
    g.ForEach([&](ProcessId p) {
      for (std::uint32_t c = 0; c < space.NumProjectionClasses(p); ++c) {
        std::uint32_t least = UINT32_MAX;
        for (std::uint32_t y : space.Bucket(p, c))
          least = std::min(least, label[y]);
        for (std::uint32_t y : space.Bucket(p, c)) {
          if (label[y] == least) continue;
          label[y] = least;
          changed = true;
        }
      }
    });
  }
  return label;
}

void ExpectGroupTierInvariant(const ComputationSpace& space,
                              const Predicate& atom) {
  KnowledgeEvaluator reference(space,
                               {.num_threads = 1, .compiled_kernels = false});
  for (int threads : {1, 4}) {
    KnowledgeEvaluator kernels(space, {.num_threads = threads});
    for (const FormulaPtr& f : GroupTierFormulas(space, atom)) {
      ASSERT_EQ(reference.SatisfyingSet(f), kernels.SatisfyingSet(f))
          << f->ToString() << " at " << threads << " threads";
      ASSERT_EQ(reference.HoldsAll(f), kernels.HoldsAll(f)) << f->ToString();
      for (std::size_t id = 0; id < space.size(); id += 17)
        ASSERT_EQ(reference.Holds(f, id), kernels.Holds(f, id))
            << f->ToString() << " at " << id;
    }
    // CK components over the full group and a pair: the [G]-contracted
    // union-find must produce the exact smallest-member labels of the
    // per-id brute force, at any thread count.
    for (ProcessSet g : {space.AllProcesses(), ProcessSet{0, 1}}) {
      const auto expected = BruteForceComponents(space, g);
      for (std::size_t id = 0; id < space.size(); ++id) {
        ASSERT_EQ(reference.CommonComponent(g, id), expected[id])
            << "component of " << id;
        ASSERT_EQ(kernels.CommonComponent(g, id), expected[id])
            << "component of " << id << " at " << threads << " threads";
      }
      // The tier's direct target against the whole-relation scan.
      ASSERT_EQ(kernels.SatisfyingSet(Formula::Knows(g, Formula::Atom(atom))),
                BruteForceKnows(space, g, atom))
          << g.ToString() << " at " << threads << " threads";
    }
    // The tier engaged on both engines.
    EXPECT_GT(kernels.MemoryUsage().group_entries, 0u);
  }
  EXPECT_GT(reference.MemoryUsage().group_entries, 0u);
}

TEST(KnowledgeGroupMemoTest, CanonicalizedSpaceIsTierInvariant) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.internal_events = 1;
  options.seed = 42;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 32});
  ASSERT_GT(space.size(), 500u);  // large enough to take the parallel path
  ExpectGroupTierInvariant(space, Predicate::CountOnAtLeast(0, 2));
}

TEST(KnowledgeGroupMemoTest, LockstepSpaceIsTierInvariant) {
  protocols::LockstepSystem system(8);
  EnumerationLimits limits;
  limits.max_depth = 42;
  limits.canonicalize = false;
  const auto space = ComputationSpace::Enumerate(system, limits);
  ASSERT_GE(space.size(), 128u);  // parallel threshold
  ExpectGroupTierInvariant(space, system.Crashed());
}

TEST(KnowledgeGroupMemoTest, SequentialAndParallelEnginesAgreeWithTierOn) {
  // 4-thread kernel passes fill [G]-rows exactly like [p]-rows: their
  // results equal the sequential interpreter's.
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 4;
  options.internal_events = 1;
  options.seed = 7;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 32});
  ASSERT_GT(space.size(), 1000u);
  KnowledgeEvaluator seq(space, {.num_threads = 1, .compiled_kernels = false});
  KnowledgeEvaluator par(space, {.num_threads = 4});
  const FormulaPtr atom = Formula::Atom(Predicate::CountOnAtLeast(0, 2));
  for (const FormulaPtr& f :
       {Formula::Knows(ProcessSet{0, 1, 2}, atom),
        Formula::Everyone(ProcessSet{1, 2, 3}, atom),
        Formula::Everyone(ProcessSet{0, 1},
                          Formula::Knows(ProcessSet{2}, atom))}) {
    ASSERT_EQ(seq.SatisfyingSet(f), par.SatisfyingSet(f)) << f->ToString();
  }
}

TEST(KnowledgeGroupMemoTest, GroupSweepsMemoizePerGroupClassNotPerMember) {
  // After one whole-space sweep of K{0,1} atom, the [G]-row holds exactly
  // one entry per [G]-class — the sum-of-squares -> linear collapse, now
  // for group modalities.
  RandomSystemOptions options;
  options.seed = 7;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space, {.num_threads = 1});
  const ProcessSet pair{0, 1};
  const FormulaPtr f =
      Formula::Knows(pair, Formula::Atom(Predicate::CountOnAtLeast(0, 1)));
  eval.SatisfyingSet(f);
  EXPECT_EQ(eval.MemoryUsage().group_entries, space.NumGroupClasses(pair));
}

TEST(KnowledgeGroupMemoTest, EvaluatorReusesAnIncrementallyBuiltIndex) {
  // A space enumerated with EnumerationLimits::groups already owns the
  // [G]-index; the evaluator's tier must attach to it rather than build a
  // second one, and verdicts must match a lazily indexed space.
  RandomSystemOptions options;
  options.seed = 5;
  RandomSystem system(options);
  const ProcessSet pair{0, 1};
  EnumerationLimits limits;
  limits.max_depth = 24;
  limits.groups = {pair};
  const auto pre_indexed = ComputationSpace::Enumerate(system, limits);
  limits.groups.clear();
  const auto lazy = ComputationSpace::Enumerate(system, limits);
  ASSERT_TRUE(pre_indexed.HasGroupIndex(pair));
  KnowledgeEvaluator eval_pre(pre_indexed, {.num_threads = 1});
  KnowledgeEvaluator eval_lazy(lazy, {.num_threads = 1});
  const FormulaPtr f =
      Formula::Knows(pair, Formula::Atom(Predicate::CountOnAtLeast(0, 1)));
  EXPECT_EQ(eval_pre.SatisfyingSet(f), eval_lazy.SatisfyingSet(f));
}

}  // namespace
}  // namespace hpl
