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
    }
    return;
  }
  seen_.emplace(key, records_.size());
  records_.push_back(record);
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

UserActionIndex::UserActionIndex(std::span<const ActionRecord> records,
                                 size_t num_users)
    : offsets_(num_users + 1, 0) {
  // Counting sort on user. offsets_[u + 1] first counts u's records, then
  // becomes the start of u's run, and advances past each placed entry to
  // end as the run's end; offsets_[0] stays 0.
  for (const auto& r : records) {
    if (r.user < num_users) ++offsets_[r.user + 1];
  }
  size_t start = 0;
  for (size_t u = 0; u < num_users; ++u) {
    const size_t count = offsets_[u + 1];
    offsets_[u + 1] = start;
    start += count;
  }
  entries_.resize(start);
  for (const auto& r : records) {
    if (r.user < num_users) {
      entries_[offsets_[r.user + 1]++] = {r.action, r.time};
    }
  }
  // Each run by (action, time), then only the first entry of each action is
  // kept, compacting the runs towards the front.
  size_t kept = 0;
  for (size_t u = 0; u < num_users; ++u) {
    const auto begin = entries_.begin() + static_cast<ptrdiff_t>(offsets_[u]);
    const auto end = entries_.begin() + static_cast<ptrdiff_t>(offsets_[u + 1]);
    std::sort(begin, end, [](const ActionTime& a, const ActionTime& b) {
      return a.action != b.action ? a.action < b.action : a.time < b.time;
    });
    const size_t run_start = kept;
    for (auto it = begin; it != end; ++it) {
      if (kept > run_start && entries_[kept - 1].action == it->action) continue;
      entries_[kept++] = *it;
    }
    offsets_[u] = run_start;
  }
  offsets_[num_users] = kept;
  entries_.resize(kept);
}

std::span<const ActionTime> UserActionIndex::Run(NodeId user) const {
  if (user >= num_users()) return {};
  return std::span<const ActionTime>(entries_).subspan(
      offsets_[user], offsets_[user + 1] - offsets_[user]);
}

bool UserActionIndex::Lookup(NodeId user, ActionId action,
                             uint64_t* time_out) const {
  const std::span<const ActionTime> run = Run(user);
  auto it = std::lower_bound(
      run.begin(), run.end(), action,
      [](const ActionTime& e, ActionId a) { return e.action < a; });
  if (it == run.end() || it->action != action) return false;
  if (time_out != nullptr) *time_out = it->time;
  return true;
}

size_t UserActionIndex::ActionIdBound() const {
  size_t bound = 0;
  for (const auto& e : entries_) {
    bound = std::max(bound, static_cast<size_t>(e.action) + 1);
  }
  return bound;
}

UserActionIndex UserActionIndex::WithDenseActionIds() const {
  std::vector<ActionId> ids;
  ids.reserve(entries_.size());
  for (const auto& e : entries_) ids.push_back(e.action);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  UserActionIndex dense = *this;
  for (auto& e : dense.entries_) {
    e.action = static_cast<ActionId>(
        std::lower_bound(ids.begin(), ids.end(), e.action) - ids.begin());
  }
  return dense;
}

}  // namespace psi
