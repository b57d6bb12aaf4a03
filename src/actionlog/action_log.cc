#include "actionlog/action_log.h"

#include <algorithm>

namespace psi {

void ActionLog::Add(const ActionRecord& record) {
  uint64_t key = Key(record.user, record.action);
  auto it = seen_.find(key);
  if (it != seen_.end()) {
    // Keep the earliest occurrence.
    if (record.time < records_[it->second].time) {
      records_[it->second].time = record.time;
      InvalidateIndex();
    }
    return;
  }
  seen_.emplace(key, records_.size());
  records_.push_back(record);
  InvalidateIndex();
}

void ActionLog::Merge(const ActionLog& other) {
  for (const auto& r : other.records_) Add(r);
}

bool ActionLog::Lookup(NodeId user, ActionId action, uint64_t* time_out) const {
  auto it = seen_.find(Key(user, action));
  if (it == seen_.end()) return false;
  if (time_out != nullptr) *time_out = records_[it->second].time;
  return true;
}

uint64_t ActionLog::MaxTime() const {
  uint64_t mx = 0;
  for (const auto& r : records_) mx = std::max(mx, r.time);
  return mx;
}

ActionId ActionLog::MaxActionId() const {
  ActionId mx = 0;
  for (const auto& r : records_) mx = std::max(mx, r.action + 1);
  return mx;
}

NodeId ActionLog::MaxUserId() const {
  NodeId mx = 0;
  for (const auto& r : records_) mx = std::max(mx, r.user + 1);
  return mx;
}

std::vector<ActionRecord> ActionLog::RecordsOfAction(ActionId action) const {
  std::vector<ActionRecord> out;
  for (const auto& r : records_) {
    if (r.action == action) out.push_back(r);
  }
  return out;
}

void ActionLog::BuildIndex() const {
  std::vector<ActionRecord> sorted = records_;
  std::sort(sorted.begin(), sorted.end(),
            [](const ActionRecord& a, const ActionRecord& b) {
              return Key(a.user, a.action) < Key(b.user, b.action);
            });
  index_.clear();
  index_users_.clear();
  user_offsets_.clear();
  index_.reserve(sorted.size());
  for (const auto& r : sorted) {
    if (index_users_.empty() || index_users_.back() != r.user) {
      index_users_.push_back(r.user);
      user_offsets_.push_back(index_.size());
    }
    index_.push_back({r.action, r.time});
  }
  user_offsets_.push_back(index_.size());
  index_built_ = true;
}

std::span<const ActionTime> ActionLog::UserIndex(NodeId user) const {
  if (!index_built_) BuildIndex();
  auto it = std::lower_bound(index_users_.begin(), index_users_.end(), user);
  if (it == index_users_.end() || *it != user) return {};
  const size_t k = static_cast<size_t>(it - index_users_.begin());
  return std::span<const ActionTime>(index_).subspan(
      user_offsets_[k], user_offsets_[k + 1] - user_offsets_[k]);
}

}  // namespace psi
