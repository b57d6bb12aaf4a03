// The action log L(User, Time, Action) of Section 3: each record states that
// a user performed an action at a time. Invariant maintained throughout the
// library: any given user performs any given action at most once (repeat
// purchases collapse to the first, as the paper specifies).

#ifndef PSI_ACTIONLOG_ACTION_LOG_H_
#define PSI_ACTIONLOG_ACTION_LOG_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace psi {

/// \brief Dense action identifier in [0, num_actions).
using ActionId = uint32_t;

/// \brief One entry of a user's index: the user performed `action` at `time`.
struct ActionTime {
  ActionId action;
  uint64_t time;
};

/// \brief One log record: user `user` performed action `action` at `time`.
struct ActionRecord {
  NodeId user;
  ActionId action;
  uint64_t time;

  bool operator==(const ActionRecord&) const = default;
};

/// \brief An action log owned by one party (or the conceptual union).
class ActionLog {
 public:
  ActionLog() = default;

  /// \brief Appends a record; keeps the earliest record when a (user, action)
  /// pair repeats (the paper counts only the first purchase).
  void Add(const ActionRecord& record);

  /// \brief Appends all records of another log, with the same dedup rule.
  void Merge(const ActionLog& other);

  const std::vector<ActionRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// \brief Time of (user, action), or nullopt-like miss via `found`.
  bool Lookup(NodeId user, ActionId action, uint64_t* time_out) const;

  /// \brief Largest timestamp in the log (0 for an empty log).
  uint64_t MaxTime() const;

  /// \brief Largest action id + 1 (0 for an empty log).
  ActionId MaxActionId() const;

  /// \brief Largest user id + 1 (0 for an empty log).
  NodeId MaxUserId() const;

  /// \brief All records of one action, unsorted.
  std::vector<ActionRecord> RecordsOfAction(ActionId action) const;

  /// \brief One user's records as (action, time) entries sorted by action
  /// (empty for a user absent from the log). The index behind it is built
  /// on first use and rebuilt after a mutation, which invalidates every
  /// span handed out before.
  std::span<const ActionTime> UserIndex(NodeId user) const;

 private:
  static uint64_t Key(NodeId user, ActionId action) {
    return (static_cast<uint64_t>(user) << 32) | action;
  }

  void InvalidateIndex() { index_built_ = false; }
  void BuildIndex() const;

  std::vector<ActionRecord> records_;
  std::unordered_map<uint64_t, size_t> seen_;  // (user, action) -> record idx

  // Lazily built flat index: every record as (action, time), sorted by
  // (user, action). index_users_ lists the users present in ascending order;
  // index_users_[k] owns index_[user_offsets_[k], user_offsets_[k + 1]).
  // Keying by present users keeps the index O(records) however sparse the
  // user ids are.
  mutable bool index_built_ = false;
  mutable std::vector<ActionTime> index_;
  mutable std::vector<NodeId> index_users_;
  mutable std::vector<size_t> user_offsets_;
};

}  // namespace psi

#endif  // PSI_ACTIONLOG_ACTION_LOG_H_
