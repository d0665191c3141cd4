#include "check.hpp"

namespace perfbench {

void Ledger::expect(std::size_t n) {
  if (n > state_.size()) {
    state_.resize(n, kUnseen);
  }
}

void Ledger::deliver(std::int64_t item, bool correct) {
  if (item < 0 || static_cast<std::size_t>(item) >= state_.size()) {
    ++unknown_;
    return;
  }
  std::uint8_t& s = state_[static_cast<std::size_t>(item)];
  if (s == kUnseen) {
    s = correct ? kOk : kBad;
    wrong_ += correct ? 0 : 1;
  } else if (s == kOk) {
    s = kBad;  // an item counts as failed once, however many extra copies
    ++duplicated_;
  }
}

std::size_t Ledger::missing() const {
  std::size_t n = 0;
  for (const std::uint8_t s : state_) {
    n += s == kUnseen ? 1 : 0;
  }
  return n;
}

std::size_t Ledger::failed() const {
  return wrong_ + duplicated_ + missing() + unknown_;
}

std::string Ledger::summary() const {
  return "wrong=" + std::to_string(wrong_) +
         " duplicated=" + std::to_string(duplicated_) +
         " missing=" + std::to_string(missing()) +
         " unknown=" + std::to_string(unknown_);
}

bool OrderCheck::next(std::size_t stream, std::int64_t seq) {
  std::int64_t& last = last_.at(stream);
  const bool in_order = seq > last;
  if (!in_order) {
    ++violations_;
  } else {
    last = seq;
  }
  return in_order;
}

}  // namespace perfbench
