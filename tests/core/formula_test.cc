#include "core/formula.h"

#include <gtest/gtest.h>

#include <string>

namespace hpl {
namespace {

std::vector<Predicate> Atoms() {
  return {Predicate("b", [](const Computation& x) { return !x.empty(); }),
          Predicate("c", [](const Computation&) { return true; })};
}

TEST(FormulaTest, BuilderShapes) {
  auto b = Formula::Atom(Atoms()[0]);
  EXPECT_EQ(b->kind(), FormulaKind::kAtom);
  EXPECT_EQ(b->ToString(), "b");

  auto f = Formula::Knows(ProcessSet{0}, b);
  EXPECT_EQ(f->kind(), FormulaKind::kKnows);
  EXPECT_EQ(f->group(), ProcessSet{0});
  EXPECT_EQ(f->ToString(), "K{p0} b");

  auto g = Formula::And(Formula::Not(b), Formula::Or(b, b));
  EXPECT_EQ(g->ToString(), "(!b && (b || b))");
}

TEST(FormulaTest, ModalDepth) {
  auto b = Formula::Atom(Atoms()[0]);
  EXPECT_EQ(b->ModalDepth(), 0);
  EXPECT_EQ(Formula::Not(b)->ModalDepth(), 0);
  auto k = Formula::Knows(ProcessSet{0}, b);
  EXPECT_EQ(k->ModalDepth(), 1);
  auto kk = Formula::Knows(ProcessSet{1}, k);
  EXPECT_EQ(kk->ModalDepth(), 2);
  EXPECT_EQ(Formula::And(kk, b)->ModalDepth(), 2);
  EXPECT_EQ(Formula::Common(ProcessSet{0, 1}, k)->ModalDepth(), 2);
}

TEST(FormulaTest, KnowsChainBuildsOutermostFirst) {
  auto b = Formula::Atom(Atoms()[0]);
  auto chain =
      Formula::KnowsChain({ProcessSet{0}, ProcessSet{1}, ProcessSet{2}}, b);
  // P1 knows P2 knows P3 knows b, outermost P1 = {0}.
  EXPECT_EQ(chain->ToString(), "K{p0} K{p1} K{p2} b");
}

TEST(FormulaTest, ParseAtomsAndConnectives) {
  const auto atoms = Atoms();
  EXPECT_EQ(Formula::Parse("b", atoms)->ToString(), "b");
  EXPECT_EQ(Formula::Parse("!b", atoms)->ToString(), "!b");
  EXPECT_EQ(Formula::Parse("b && c", atoms)->ToString(), "(b && c)");
  EXPECT_EQ(Formula::Parse("b || c && b", atoms)->ToString(),
            "(b || (c && b))");
  EXPECT_EQ(Formula::Parse("b => c => b", atoms)->ToString(),
            "(b => (c => b))");
  EXPECT_EQ(Formula::Parse("(b || c) && b", atoms)->ToString(),
            "((b || c) && b)");
  EXPECT_EQ(Formula::Parse("true && false", atoms)->ToString(),
            "(true && false)");
}

TEST(FormulaTest, ParseModalities) {
  const auto atoms = Atoms();
  EXPECT_EQ(Formula::Parse("K{0} b", atoms)->ToString(), "K{p0} b");
  EXPECT_EQ(Formula::Parse("K{0,2} b", atoms)->ToString(), "K{p0,p2} b");
  EXPECT_EQ(Formula::Parse("K{0} K{1} b", atoms)->ToString(),
            "K{p0} K{p1} b");
  EXPECT_EQ(Formula::Parse("Sure{1} b", atoms)->ToString(), "Sure{p1} b");
  EXPECT_EQ(Formula::Parse("CK{0,1} b", atoms)->ToString(), "CK{p0,p1} b");
  EXPECT_EQ(Formula::Parse("!K{0} !b", atoms)->ToString(), "!K{p0} !b");
}

TEST(FormulaTest, ParseErrors) {
  const auto atoms = Atoms();
  EXPECT_THROW(Formula::Parse("", atoms), ModelError);
  EXPECT_THROW(Formula::Parse("d", atoms), ModelError);       // unknown atom
  EXPECT_THROW(Formula::Parse("b &&", atoms), ModelError);
  EXPECT_THROW(Formula::Parse("K b", atoms), ModelError);     // missing group
  EXPECT_THROW(Formula::Parse("K{} b", atoms), ModelError);   // empty group
  EXPECT_THROW(Formula::Parse("(b", atoms), ModelError);
  EXPECT_THROW(Formula::Parse("b c", atoms), ModelError);     // trailing
}

std::string Repeat(const std::string& piece, int times) {
  std::string out;
  out.reserve(piece.size() * static_cast<std::size_t>(times));
  for (int i = 0; i < times; ++i) out += piece;
  return out;
}

// Expects Parse to reject `text` with a ModelError that names the limit.
void ExpectTooTall(const std::string& text, const char* shape) {
  try {
    Formula::Parse(text, Atoms());
    ADD_FAILURE() << shape << ": parsed";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(Formula::kMaxParseHeight)),
              std::string::npos)
        << shape << ": " << e.what();
  }
}

TEST(FormulaTest, HeightIsFixedAtConstruction) {
  const auto atoms = Atoms();
  EXPECT_EQ(Formula::Parse("b", atoms)->height(), 1);
  EXPECT_EQ(Formula::Parse("K{0} (b && !c)", atoms)->height(), 4);
  EXPECT_EQ(Formula::Parse("((b))", atoms)->height(), 1);
}

TEST(FormulaTest, ParseRejectsFormulasBeyondTheHeightLimit) {
  // Every shape that recurses later — in Intern, Eval, Compile, Refresh —
  // or in the parser itself, 100,000 levels deep.
  constexpr int kHostile = 100000;
  ExpectTooTall(Repeat("!", kHostile) + "b", "! prefix");
  ExpectTooTall(Repeat("K{0} ", kHostile) + "b", "modal prefix");
  ExpectTooTall(Repeat("(", kHostile) + "b" + Repeat(")", kHostile),
                "parentheses");
  ExpectTooTall("b" + Repeat(" => b", kHostile), "=> chain");
  ExpectTooTall("b" + Repeat(" && b", kHostile), "&& chain");
  ExpectTooTall("b" + Repeat(" || c", kHostile), "|| chain");

  // The boundary: height exactly kMaxParseHeight parses, one more does not.
  const auto atoms = Atoms();
  const int limit = Formula::kMaxParseHeight;
  EXPECT_EQ(Formula::Parse(Repeat("!", limit - 1) + "b", atoms)->height(),
            limit);
  ExpectTooTall(Repeat("!", limit) + "b", "! at the limit");
  EXPECT_EQ(Formula::Parse("b" + Repeat(" && b", limit - 1), atoms)->height(),
            limit);
  ExpectTooTall("b" + Repeat(" && b", limit), "&& at the limit");
  EXPECT_EQ(
      Formula::Parse(Repeat("(", limit) + "b" + Repeat(")", limit), atoms)
          ->height(),
      1);
  ExpectTooTall(Repeat("(", limit + 1) + "b" + Repeat(")", limit + 1),
                "parentheses at the limit");
}

TEST(FormulaTest, NullOperandsRejected) {
  auto b = Formula::Atom(Atoms()[0]);
  EXPECT_THROW(Formula::Not(nullptr), ModelError);
  EXPECT_THROW(Formula::And(b, nullptr), ModelError);
  EXPECT_THROW(Formula::Knows(ProcessSet{0}, nullptr), ModelError);
  EXPECT_THROW(Formula::Common(ProcessSet::Empty(), b), ModelError);
  EXPECT_THROW(Formula::Atom(Predicate{}), ModelError);
}

}  // namespace
}  // namespace hpl
