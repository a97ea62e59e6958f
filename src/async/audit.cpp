#include "async/audit.hpp"

#include <sstream>

#include "common/check.hpp"

namespace synran {

namespace {

[[noreturn]] void violation(const std::string& what) {
  throw InvariantError("async audit: " + what);
}

std::string at(SimTime now) {
  std::ostringstream os;
  os << " at t=" << now;
  return os.str();
}

}  // namespace

void AsyncRunAuditor::begin(std::uint32_t n, std::uint32_t t_budget,
                            std::uint32_t omission_budget) {
  n_ = n;
  t_budget_ = t_budget;
  omission_budget_ = omission_budget;
  crashes_ = 0;
  omissions_ = 0;
  last_time_ = 0;
  crashed_.assign(n, false);
}

void AsyncRunAuditor::time_violation(SimTime now) const {
  std::ostringstream os;
  os << "event time moved backwards: t=" << now << " after t=" << last_time_;
  violation(os.str());
}

void AsyncRunAuditor::on_crash(SimTime now, ProcessId victim) {
  note_time(now);
  if (victim >= n_)
    violation("crash names process " + std::to_string(victim) +
              " outside 0.." + std::to_string(n_ - 1) + at(now));
  if (crashed_[victim])
    violation("process " + std::to_string(victim) + " crashed twice" +
              at(now));
  if (crashes_ >= t_budget_)
    violation("crash budget exceeded: " + std::to_string(t_budget_) +
              " allowed, crashing process " + std::to_string(victim) +
              at(now));
  crashed_[victim] = true;
  ++crashes_;
}

void AsyncRunAuditor::deliver_violation(SimTime now,
                                        const AsyncMessage& msg) const {
  if (msg.to >= n_ || msg.from >= n_)
    violation("delivery with out-of-range endpoints" + at(now));
  violation("delivery to crashed process " + std::to_string(msg.to) +
            " (from " + std::to_string(msg.from) + ")" + at(now));
}

void AsyncRunAuditor::send_violation(SimTime now,
                                     const AsyncMessage& msg) const {
  if (msg.from >= n_ || msg.to >= n_)
    violation("send with out-of-range endpoints" + at(now));
  violation("crashed process " + std::to_string(msg.from) + " sent" +
            at(now));
}

void AsyncRunAuditor::on_omission(SimTime now, ProcessId sender,
                                  std::uint64_t /*dropped*/) {
  note_time(now);
  if (sender >= n_)
    violation("omission names process " + std::to_string(sender) +
              " outside 0.." + std::to_string(n_ - 1) + at(now));
  if (crashed_[sender])
    violation("omission against crashed process " + std::to_string(sender) +
              at(now));
  if (omissions_ >= omission_budget_)
    violation("omission budget exceeded: " + std::to_string(omission_budget_) +
              " injections allowed" + at(now));
  ++omissions_;
}

void AsyncRunAuditor::on_end(std::uint32_t crashes_reported,
                             std::uint32_t omissions_reported) const {
  if (crashes_reported != crashes_)
    violation("engine reported " + std::to_string(crashes_reported) +
              " crashes but " + std::to_string(crashes_) + " were audited");
  if (omissions_reported != omissions_)
    violation("engine reported " + std::to_string(omissions_reported) +
              " omissions but " + std::to_string(omissions_) +
              " were audited");
}

}  // namespace synran
