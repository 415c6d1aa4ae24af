#include "core/predicate.h"

namespace hpl {

namespace {

using Fold = Predicate::Fold;
using EventCount = Predicate::EventCount;

std::shared_ptr<const Fold> ConstFold(bool value) {
  auto fold = std::make_shared<Fold>();
  fold->kind = Fold::Kind::kConst;
  fold->value = value;
  return fold;
}

std::shared_ptr<const Fold> CountFold(EventCount count) {
  auto fold = std::make_shared<Fold>();
  fold->kind = Fold::Kind::kCount;
  fold->count = std::move(count);
  return fold;
}

// "Some event e with match(e)": weight 1 on matching events, count >= 1.
template <typename Match>
std::shared_ptr<const Fold> AnyEventFold(Match match) {
  return CountFold(
      {.weight = [match](const Event& e) { return match(e) ? 1 : 0; },
       .cmp = EventCount::Cmp::kAtLeast,
       .k = 1});
}

// The fold form of a connective: null unless every operand has one (`b`
// is absent for kNot).
std::shared_ptr<const Fold> ConnectiveFold(Fold::Kind kind,
                                           std::shared_ptr<const Fold> a,
                                           std::shared_ptr<const Fold> b) {
  if (a == nullptr || (kind != Fold::Kind::kNot && b == nullptr))
    return nullptr;
  auto fold = std::make_shared<Fold>();
  fold->kind = kind;
  fold->a = std::move(a);
  fold->b = std::move(b);
  return fold;
}

}  // namespace

Predicate::Predicate(std::string name, Fn fn, EventCount count)
    : name_(std::move(name)),
      fn_(std::move(fn)),
      fold_(CountFold(std::move(count))) {}

Predicate Predicate::WithFold(std::string name, Fn fn,
                              std::shared_ptr<const Fold> fold) {
  Predicate out(std::move(name), std::move(fn));
  out.fold_ = std::move(fold);
  return out;
}

Predicate Predicate::operator!() const {
  Fn self = fn_;
  return WithFold("!(" + name_ + ")",
                  [self](const Computation& x) { return !self(x); },
                  ConnectiveFold(Fold::Kind::kNot, fold_, nullptr));
}

Predicate Predicate::operator&&(const Predicate& other) const {
  Fn a = fn_, b = other.fn_;
  return WithFold("(" + name_ + " && " + other.name_ + ")",
                  [a, b](const Computation& x) { return a(x) && b(x); },
                  ConnectiveFold(Fold::Kind::kAnd, fold_, other.fold_));
}

Predicate Predicate::operator||(const Predicate& other) const {
  Fn a = fn_, b = other.fn_;
  return WithFold("(" + name_ + " || " + other.name_ + ")",
                  [a, b](const Computation& x) { return a(x) || b(x); },
                  ConnectiveFold(Fold::Kind::kOr, fold_, other.fold_));
}

Predicate Predicate::Implies(const Predicate& other) const {
  Fn a = fn_, b = other.fn_;
  return WithFold("(" + name_ + " => " + other.name_ + ")",
                  [a, b](const Computation& x) { return !a(x) || b(x); },
                  ConnectiveFold(Fold::Kind::kImplies, fold_, other.fold_));
}

Predicate Predicate::True() {
  return WithFold("true", [](const Computation&) { return true; },
                  ConstFold(true));
}

Predicate Predicate::False() {
  return WithFold("false", [](const Computation&) { return false; },
                  ConstFold(false));
}

// The opaque functions below are the independent reference the fold forms
// are differential-tested against: they scan the materialized events.
Predicate Predicate::CountOnAtLeast(ProcessId p, int k) {
  return WithFold(
      "count(p" + std::to_string(p) + ")>=" + std::to_string(k),
      [p, k](const Computation& x) { return x.CountOn(p) >= k; },
      CountFold(
          {.weight = [p](const Event& e) { return e.process == p ? 1 : 0; },
           .cmp = EventCount::Cmp::kAtLeast,
           .k = k}));
}

Predicate Predicate::DidInternal(ProcessId p, std::string label) {
  auto fold = AnyEventFold([p, label](const Event& e) {
    return e.process == p && e.IsInternal() && e.label == label;
  });
  return WithFold(
      "did(p" + std::to_string(p) + "," + label + ")",
      [p, label](const Computation& x) {
        for (const Event& e : x.events())
          if (e.process == p && e.IsInternal() && e.label == label)
            return true;
        return false;
      },
      std::move(fold));
}

Predicate Predicate::HasLabel(std::string label) {
  auto fold =
      AnyEventFold([label](const Event& e) { return e.label == label; });
  return WithFold("has(" + label + ")",
                  [label](const Computation& x) {
                    for (const Event& e : x.events())
                      if (e.label == label) return true;
                    return false;
                  },
                  std::move(fold));
}

Predicate Predicate::Sent(MessageId m) {
  return WithFold("sent(m" + std::to_string(m) + ")",
                  [m](const Computation& x) {
                    for (const Event& e : x.events())
                      if (e.IsSend() && e.message == m) return true;
                    return false;
                  },
                  AnyEventFold([m](const Event& e) {
                    return e.IsSend() && e.message == m;
                  }));
}

Predicate Predicate::Received(MessageId m) {
  return WithFold("received(m" + std::to_string(m) + ")",
                  [m](const Computation& x) {
                    for (const Event& e : x.events())
                      if (e.IsReceive() && e.message == m) return true;
                    return false;
                  },
                  AnyEventFold([m](const Event& e) {
                    return e.IsReceive() && e.message == m;
                  }));
}

Predicate Predicate::AllMessagesDelivered() {
  return WithFold(
      "all_delivered",
      [](const Computation& x) {
        int sends = 0, receives = 0;
        for (const Event& e : x.events()) {
          if (e.IsSend()) ++sends;
          if (e.IsReceive()) ++receives;
        }
        return sends == receives;
      },
      CountFold({.weight = [](const Event& e) {
                   return e.IsSend() ? 1 : e.IsReceive() ? -1 : 0;
                 },
                 .cmp = EventCount::Cmp::kEquals,
                 .k = 0}));
}

}  // namespace hpl
