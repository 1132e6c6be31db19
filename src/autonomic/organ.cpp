#include "autonomic/organ.hpp"

namespace aft::autonomic {

RestoringOrgan::RestoringOrgan(std::size_t replicas, vote::VotingFarm::Task task,
                               ReflectiveSwitchboard::Policy policy,
                               std::uint64_t shared_key)
    : farm_(task ? vote::VotingFarm(replicas, std::move(task))
                 : vote::VotingFarm(replicas)),
      board_(farm_, policy, shared_key) {}

const std::string& RestoringOrgan::channel(std::size_t unit) {
  while (channels_.size() <= unit) {
    channels_.push_back("replica-" + std::to_string(channels_.size()));
  }
  return channels_[unit];
}

void RestoringOrgan::notify(std::size_t unit, bool moved) {
  if (moved && hook_) hook_(unit, judge_.judgment(channels_[unit]));
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
  notify(unit, judge_.reset_channel(channel(unit)));
}

detect::FaultJudgment RestoringOrgan::judgment(std::size_t unit) const {
  return unit < channels_.size() ? judge_.judgment(channels_[unit])
                                 : detect::FaultJudgment::kNoEvidence;
}

}  // namespace aft::autonomic
