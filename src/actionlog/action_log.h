// The action log L(User, Time, Action) of Section 3: each record states that
// a user performed an action at a time. Invariant maintained throughout the
// library: any given user performs any given action at most once (repeat
// purchases collapse to the first, as the paper specifies).
//
// ActionLog is the mutable, insertion-ordered form a party builds and
// partitions. UserActionIndex is the immutable form the counters read: one
// flat array of (action, time) entries grouped by user, with O(1) access to
// a user's run. It is built in one pass from a record list, so a stage
// program decodes its staged log straight into it, with no ActionLog.

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

 private:
  static uint64_t Key(NodeId user, ActionId action) {
    return (static_cast<uint64_t>(user) << 32) | action;
  }

  std::vector<ActionRecord> records_;
  std::unordered_map<uint64_t, size_t> seen_;  // (user, action) -> record idx
};

/// \brief A read-only per-user index of a record list over users [0, n):
/// each user's run holds one (action, time) entry per action, sorted by
/// action, at the earliest time any record gives it (ActionLog::Add's rule).
/// Records of users >= n are dropped, so memory is O(records + n) whatever
/// the user ids. Stored as n + 1 offsets into one entry array.
class UserActionIndex {
 public:
  /// \brief The empty index over no users.
  UserActionIndex() = default;

  /// \brief Indexes `records` over users [0, num_users) in
  /// O(records + num_users): a counting sort on user, then an order by
  /// action within each run.
  UserActionIndex(std::span<const ActionRecord> records, size_t num_users);

  size_t num_users() const { return offsets_.size() - 1; }

  /// \brief Number of entries over all users.
  size_t size() const { return entries_.size(); }

  /// \brief One user's entries, sorted by action; empty for user >= n.
  std::span<const ActionTime> Run(NodeId user) const;

  /// \brief Time at which `user` performed `action`; false if never.
  bool Lookup(NodeId user, ActionId action, uint64_t* time_out) const;

  /// \brief Largest action id + 1 (0 for an empty index), as a size_t so
  /// that an id of UINT32_MAX does not wrap.
  size_t ActionIdBound() const;

  /// \brief The same index with every action id replaced by its rank among
  /// the ids present; the order within each run is kept.
  UserActionIndex WithDenseActionIds() const;

 private:
  std::vector<size_t> offsets_ = std::vector<size_t>(1, 0);
  std::vector<ActionTime> entries_;
};

}  // namespace psi

#endif  // PSI_ACTIONLOG_ACTION_LOG_H_
