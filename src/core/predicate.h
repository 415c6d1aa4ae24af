// Predicates on system computations (paper Section 4.1).
//
// "Let b denote a predicate on system computations... We assume x [D] y
// implies b at x = b at y" — predicate values depend only on the
// [D]-equivalence class.  Our evaluator always applies predicates to
// canonical representatives, which enforces that assumption; authors of
// predicates should still write them in terms of projections / event
// multisets, never in terms of absolute positions across processes.
//
// Fold form.  A predicate may also carry an optional *fold form*: a tree of
// constants, event counts and connectives whose leaves each compare a
// weighted event count with a constant,
//
//   count(x) = sum over the events e of x of weight(e),   count(x) >= k
//                                                     or count(x) == k.
//
// A count is a function of the event multiset, so it is [D]-invariant, and
// it extends one event at a time: a stored class is its link parent plus
// one event, so count(child) = count(parent) + weight(event).  That lets the
// whole-space sweep build a fold-form atom's plane in one forward pass over
// the space's class-link column (ComputationSpace::CountPlane), computing
// each weight once per interned event and never materializing a class.
// Every built-in constructor below carries one; the connectives carry one
// when both operands do.  Predicates without one (opaque lambdas) are
// evaluated on materialized computations.
//
// Contract for custom fold forms (the three-argument constructor): for
// every computation x, `fn(x)` must equal the fold form's verdict on x's
// events, and each weight must be a pure function of the event within
// [-kMaxWeight, kMaxWeight].  Whole-space kernel sweeps read only the fold
// form and never call `fn`; pointwise Holds and the interpreted engine
// (compiled_kernels off) read only `fn` — a disagreement between the two is
// a broken predicate, which the differential tests of the built-ins guard
// against.
#ifndef HPL_CORE_PREDICATE_H_
#define HPL_CORE_PREDICATE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/computation.h"
#include "core/types.h"

namespace hpl {

class Predicate {
 public:
  using Fn = std::function<bool(const Computation&)>;

  // Largest |weight| of one event: with at most 65535 events per class
  // (the columnar store's 16-bit lengths) every count fits an int32.
  static constexpr int kMaxWeight = 32767;

  // One fold-form leaf: the weighted event count compared with `k`.
  struct EventCount {
    enum class Cmp : std::uint8_t { kAtLeast, kEquals };
    std::function<int(const Event&)> weight;
    Cmp cmp = Cmp::kAtLeast;
    int k = 1;

    bool Test(std::int64_t count) const {
      return cmp == Cmp::kAtLeast ? count >= k : count == k;
    }
  };

  // A fold-form node: a constant, an event-count leaf, or a connective over
  // fold-form operands (`a` for kNot, `a` and `b` otherwise).
  struct Fold {
    enum class Kind : std::uint8_t {
      kConst,
      kCount,
      kNot,
      kAnd,
      kOr,
      kImplies,
    };
    Kind kind = Kind::kConst;
    bool value = false;  // kConst
    EventCount count;    // kCount
    std::shared_ptr<const Fold> a, b;
  };

  Predicate() = default;
  Predicate(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  // A custom predicate with a fold form; `fn` and `count` must agree (see
  // the header comment).
  Predicate(std::string name, Fn fn, EventCount count);

  bool Eval(const Computation& x) const {
    if (!fn_) throw ModelError("evaluating empty predicate");
    return fn_(x);
  }

  const std::string& name() const noexcept { return name_; }
  bool valid() const noexcept { return static_cast<bool>(fn_); }
  // The fold form, or null for an opaque predicate.
  const Fold* fold() const noexcept { return fold_.get(); }

  // --- Combinators -------------------------------------------------------
  Predicate operator!() const;
  Predicate operator&&(const Predicate& other) const;
  Predicate operator||(const Predicate& other) const;
  Predicate Implies(const Predicate& other) const;

  // --- Common constructors ----------------------------------------------
  // The constant predicates (paper: "a predicate is a constant means
  // b at x = b at y for all x, y").
  static Predicate True();
  static Predicate False();

  // Number of events on p (in any linearization) compared to k.
  static Predicate CountOnAtLeast(ProcessId p, int k);

  // Process p has performed an internal event with this label.
  static Predicate DidInternal(ProcessId p, std::string label);

  // Some event with the given label exists (on any process).
  static Predicate HasLabel(std::string label);

  // Message m has been sent / received.
  static Predicate Sent(MessageId m);
  static Predicate Received(MessageId m);

  // Every sent message has been received: as many receives as sends
  // (used by termination predicates).
  static Predicate AllMessagesDelivered();

 private:
  static Predicate WithFold(std::string name, Fn fn,
                            std::shared_ptr<const Fold> fold);

  std::string name_;
  Fn fn_;
  std::shared_ptr<const Fold> fold_;
};

}  // namespace hpl

#endif  // HPL_CORE_PREDICATE_H_
