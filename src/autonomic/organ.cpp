#include "autonomic/organ.hpp"

#include <string>

namespace aft::autonomic {

RestoringOrgan::RestoringOrgan(std::size_t replicas, vote::VotingFarm::Task task,
                               ReflectiveSwitchboard::Policy policy,
                               std::uint64_t shared_key)
    : farm_(task ? vote::VotingFarm(replicas, std::move(task))
                 : vote::VotingFarm(replicas)),
      board_(farm_, policy, shared_key) {}

detect::ChannelId RestoringOrgan::channel(std::size_t unit) {
  while (judge_.channel_count() <= unit) {
    judge_.add("replica-" + std::to_string(judge_.channel_count()));
  }
  return unit;
}

void RestoringOrgan::notify(std::size_t unit, bool moved) {
  if (moved && hook_) hook_(unit, judge_.judgment(unit));
}

void RestoringOrgan::settle(const vote::RoundReport& report,
                            std::span<const vote::Ballot> ballots,
                            std::span<const std::size_t> units) {
  if (report.success) {  // no majority, no ground truth: nobody is scored
    for (std::size_t slot = 0; slot < units.size(); ++slot) {
      const std::size_t unit = units[slot];
      notify(unit, judge_.record(channel(unit), ballots[slot] != report.value));
    }
  }
  board_.observe(report);
}

void RestoringOrgan::reset(std::size_t unit) {
  notify(unit, judge_.reset(channel(unit)));
}

detect::FaultJudgment RestoringOrgan::judgment(std::size_t unit) const {
  return unit < judge_.channel_count() ? judge_.judgment(unit)
                                       : detect::FaultJudgment::kNoEvidence;
}

}  // namespace aft::autonomic
