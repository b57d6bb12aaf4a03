// Unit tests for the session/recovery layer (mpc/session.h): durable state
// serialization, retry orchestration, derived stage streams, and the
// crypto-op ledger.

#include "mpc/session.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/serialize.h"

namespace psi {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> v) { return v; }

TEST(SessionStateTest, PutGetHas) {
  SessionState state;
  EXPECT_FALSE(state.Has("omega"));
  EXPECT_EQ(state.ByteSize(), 0u);
  state.Put("omega", Bytes({1, 2, 3}));
  state.Put("masks", Bytes({9}));
  EXPECT_TRUE(state.Has("omega"));
  EXPECT_EQ(state.ByteSize(), 5u + 5u + 3u + 1u);  // keys 5+5, values 3+1.
  EXPECT_EQ(state.Get("omega").ValueOrDie(), Bytes({1, 2, 3}));
  state.Put("omega", Bytes({7}));  // Overwrite.
  EXPECT_EQ(state.Get("omega").ValueOrDie(), Bytes({7}));
  EXPECT_EQ(state.ByteSize(), 5u + 5u + 1u + 1u);
}

TEST(SessionStateTest, GetMissingKeyIsFailedPrecondition) {
  SessionState state;
  auto result = state.Get("absent");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionStateTest, SerializeRoundTrips) {
  SessionState state;
  state.Put("a", Bytes({}));  // Empty values are legal.
  state.Put("counters", Bytes({0, 255, 128}));
  state.Put("pubkey", std::vector<uint8_t>(300, 0x5a));
  auto restored = SessionState::Deserialize(state.Serialize()).ValueOrDie();
  EXPECT_EQ(restored.ByteSize(), state.ByteSize());
  EXPECT_EQ(restored.Get("a").ValueOrDie(), Bytes({}));
  EXPECT_EQ(restored.Get("counters").ValueOrDie(), Bytes({0, 255, 128}));
  EXPECT_EQ(restored.Get("pubkey").ValueOrDie(),
            std::vector<uint8_t>(300, 0x5a));
  // Byte-stable: serializing the restored state reproduces the buffer.
  EXPECT_EQ(restored.Serialize(), state.Serialize());
}

TEST(SessionStateTest, EmptyStateRoundTrips) {
  auto restored = SessionState::Deserialize(SessionState().Serialize());
  EXPECT_EQ(restored.ValueOrDie().Serialize(), SessionState().Serialize());
}

TEST(SessionStateTest, DeserializeRejectsTruncationAtEveryPrefix) {
  SessionState state;
  state.Put("key", Bytes({1, 2, 3, 4}));
  state.Put("second", Bytes({5}));
  const std::vector<uint8_t> buf = state.Serialize();
  for (size_t len = 0; len < buf.size(); ++len) {
    std::vector<uint8_t> prefix(buf.begin(),
                                buf.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(SessionState::Deserialize(prefix).ok()) << "len=" << len;
  }
}

TEST(SessionStateTest, DeserializeRejectsWrongVersion) {
  SessionState state;
  state.Put("key", Bytes({1}));
  std::vector<uint8_t> buf = state.Serialize();
  buf[0] ^= 0xFF;  // Version is the leading u32.
  auto result = SessionState::Deserialize(buf);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSerializationError);
}

TEST(SessionStateTest, DeserializeRejectsTrailingBytes) {
  SessionState state;
  state.Put("key", Bytes({1}));
  std::vector<uint8_t> buf = state.Serialize();
  buf.push_back(0);
  auto result = SessionState::Deserialize(buf);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSerializationError);
}

TEST(SessionStateTest, DeserializeRejectsDuplicateKeys) {
  BinaryWriter w;
  w.WriteU32(kSessionStateVersion);
  w.WriteVarU64(2);
  w.WriteString("dup");
  w.WriteBytes(Bytes({1}));
  w.WriteString("dup");
  w.WriteBytes(Bytes({2}));
  auto result = SessionState::Deserialize(w.TakeBuffer());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSerializationError);
}

TEST(SessionStateTest, DeserializeRejectsOversizedCount) {
  BinaryWriter w;
  w.WriteU32(kSessionStateVersion);
  w.WriteVarU64(1u << 30);  // Claims a billion entries in a tiny buffer.
  auto result = SessionState::Deserialize(w.TakeBuffer());
  EXPECT_FALSE(result.ok());
}

// -- Orchestrator -----------------------------------------------------------

struct TestWorld {
  Network net;
  PartyId alice;
  PartyId bob;
  TestWorld() : alice(net.RegisterParty("A")), bob(net.RegisterParty("B")) {}
};

TEST(SessionOrchestratorTest, RunsAllStagesOnceWhenNothingFails) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int runs = 0;
  // Staged before the run: the initial checkpoint holds it, so no
  // checkpoint counts it.
  session.PartyState(w.bob).Put("input", Bytes({9, 9, 9, 9}));
  session.AddStage("one", [&] {
    ++runs;
    session.PartyState(w.alice).Put("x", Bytes({1, 2, 3}));
    return Status::OK();
  });
  session.AddStage("two", [&] {
    ++runs;
    return Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  EXPECT_EQ(runs, 2);
  const SessionStats& stats = orchestrator.stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.resumes, 0u);
  EXPECT_EQ(stats.stages_run, 2u);
  EXPECT_EQ(stats.stages_resumed, 0u);
  EXPECT_EQ(stats.checkpoints_written, 2u);
  // Key + value bytes Put since the previous capture: "x" and its three
  // bytes from stage one, nothing from stage two, which wrote nothing.
  EXPECT_EQ(stats.checkpoint_bytes, 4u);
  EXPECT_EQ(stats.handshake_messages, 0u);
  EXPECT_EQ(stats.backoff_rounds, 0u);
  EXPECT_EQ(w.net.PendingCount(), 0u);
}

TEST(SessionOrchestratorTest, ResumesOnlyTheFailedStage) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int stage1_runs = 0, stage2_runs = 0;
  session.AddStage("one", [&] {
    ++stage1_runs;
    return Status::OK();
  });
  session.AddStage("two", [&] {
    ++stage2_runs;
    return stage2_runs == 1 ? Status::ProtocolError("transient") : Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  EXPECT_EQ(stage1_runs, 1);  // Resumed from the checkpoint, never replayed.
  EXPECT_EQ(stage2_runs, 2);
  const SessionStats& stats = orchestrator.stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.resumes, 1u);
  EXPECT_EQ(stats.stages_run, 3u);
  EXPECT_EQ(stats.stages_resumed, 1u);
  // Two parties -> two ordered pairs -> two sync frames per handshake.
  EXPECT_EQ(stats.handshake_messages, 2u);
  EXPECT_GT(stats.handshake_bytes, 0u);
  EXPECT_EQ(w.net.PendingCount(), 0u);
}

TEST(SessionOrchestratorTest, ExhaustsAttemptBudgetWithWrappedError) {
  TestWorld w;
  ProtocolSession session("doomed", &w.net, {w.alice, w.bob});
  session.AddStage("always-fails",
                   [&] { return Status::ProtocolError("peer sent garbage"); });
  RetryPolicy retry;
  retry.max_attempts = 2;
  SessionOrchestrator orchestrator(retry);
  Status status = orchestrator.Run(&session);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("doomed"), std::string::npos);
  EXPECT_NE(status.message().find("2 attempt"), std::string::npos);
  EXPECT_NE(status.message().find("peer sent garbage"), std::string::npos);
  EXPECT_EQ(orchestrator.stats().attempts, 2u);
  EXPECT_EQ(w.net.PendingCount(), 0u);
}

TEST(SessionOrchestratorTest, LedgerSavesCheckpointedCryptoOps) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int stage2_runs = 0;
  session.AddStage("expensive", [&] {
    session.MeterCryptoOps(10);
    return Status::OK();
  });
  session.AddStage("flaky", [&] {
    session.MeterCryptoOps(3);
    ++stage2_runs;
    return stage2_runs == 1 ? Status::ProtocolError("transient") : Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  const SessionStats& stats = orchestrator.stats();
  EXPECT_EQ(stats.crypto_ops_total, 10u + 3u + 3u);
  EXPECT_EQ(stats.crypto_ops_saved, 10u);
  EXPECT_EQ(stats.crypto_ops_recomputed, 0u);
}

TEST(SessionOrchestratorTest, FullRestartBaselineRecomputesOps) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int stage2_runs = 0;
  session.AddStage("expensive", [&] {
    session.MeterCryptoOps(10);
    return Status::OK();
  });
  session.AddStage("flaky", [&] {
    ++stage2_runs;
    return stage2_runs == 1 ? Status::ProtocolError("transient") : Status::OK();
  });
  RetryPolicy retry;
  retry.resume_from_checkpoint = false;
  SessionOrchestrator orchestrator(retry);
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  const SessionStats& stats = orchestrator.stats();
  // The retry replays the expensive stage from scratch: its ops are redone.
  EXPECT_EQ(stats.crypto_ops_recomputed, 10u);
  EXPECT_EQ(stats.crypto_ops_saved, 0u);
  EXPECT_EQ(stats.stages_resumed, 0u);
}

TEST(SessionOrchestratorTest, FailedStageReplaysIdenticalDraws) {
  TestWorld w;
  Rng rng(42);
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  session.RegisterRng("shared", &rng);
  std::vector<std::vector<uint64_t>> draws;
  session.AddStage("one", [&] { return Status::OK(); });
  session.AddStage("draws", [&] {
    Rng* stream = session.StageRng("shared");
    draws.push_back({stream->NextU64(), stream->NextU64()});
    return draws.size() == 1 ? Status::ProtocolError("fail after drawing")
                             : Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  // The replay re-derives the stage's stream from its start, with nothing
  // snapshotted: that is what makes recovered transcripts converge bitwise.
  ASSERT_EQ(draws.size(), 2u);
  EXPECT_EQ(draws[1], draws[0]);
}

TEST(SessionOrchestratorTest, StreamsArePerStageAndLabel) {
  TestWorld w;
  Rng a(7), b(8);
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  session.RegisterRng("a", &a);
  session.RegisterRng("b", &b);
  std::vector<uint64_t> first;
  std::vector<uint64_t> second;
  session.AddStage("one", [&] {
    first = {session.StageRng("a")->NextU64(),
             session.StageRng("b")->NextU64()};
    // A daemon-run program, keyed by StageRngKey, draws what StageRng draws.
    Rng rebuilt(session.StageRngKey("a").ValueOrDie());
    EXPECT_EQ(rebuilt.NextU64(), first[0]);
    EXPECT_EQ(session.StageRng("unregistered"), nullptr);
    EXPECT_FALSE(session.StageRngKey("unregistered").ok());
    return Status::OK();
  });
  session.AddStage("two", [&] {
    second = {session.StageRng("a")->NextU64(),
              session.StageRng("b")->NextU64()};
    return Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  EXPECT_NE(first[0], first[1]);
  EXPECT_NE(first[0], second[0]);
  EXPECT_NE(first[1], second[1]);
}

TEST(SessionOrchestratorTest, RegisteringTakesOneKeyFromTheCallerStream) {
  Rng rng(42), mirror(42);
  std::vector<uint64_t> draws;
  for (int run = 0; run < 2; ++run) {
    TestWorld w;
    ProtocolSession session("t", &w.net, {w.alice, w.bob});
    session.RegisterRng("shared", &rng);
    session.AddStage("draws", [&] {
      draws.push_back(session.StageRng("shared")->NextU64());
      return Status::OK();
    });
    SessionOrchestrator orchestrator(RetryPolicy{});
    ASSERT_TRUE(orchestrator.Run(&session).ok());
    // The session's 256-bit key is the only draw from the caller's stream.
    for (int word = 0; word < 8; ++word) mirror.NextU32();
    EXPECT_EQ(rng.NextU64(), mirror.NextU64());
  }
  // Back-to-back sessions on one generator draw fresh randomness.
  ASSERT_EQ(draws.size(), 2u);
  EXPECT_NE(draws[0], draws[1]);
}

TEST(SessionOrchestratorTest, RejectsDuplicateStageNames) {
  TestWorld w;
  ProtocolSession session("dup", &w.net, {w.alice, w.bob});
  int runs = 0;
  session.AddStage("masks", [&] {
    ++runs;
    return Status::OK();
  });
  session.AddStage("masks", [&] {
    ++runs;
    return Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  Status status = orchestrator.Run(&session);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'masks'"), std::string::npos);
  EXPECT_EQ(runs, 0);  // Rejected before any stage ran.
}

TEST(SessionOrchestratorTest, RestoreDiscardsFailedAttemptStateWrites) {
  TestWorld w;
  ProtocolSession session("t", &w.net, {w.alice, w.bob});
  int stage2_runs = 0;
  std::vector<uint8_t> seen_on_replay;
  session.AddStage("writes", [&] {
    session.PartyState(w.alice).Put("x", Bytes({1}));
    return Status::OK();
  });
  session.AddStage("clobbers-then-fails", [&] {
    ++stage2_runs;
    if (stage2_runs == 1) {
      session.PartyState(w.alice).Put("x", Bytes({2}));
      return Status::ProtocolError("fail after clobbering");
    }
    seen_on_replay = session.PartyState(w.alice).Get("x").ValueOrDie();
    return Status::OK();
  });
  SessionOrchestrator orchestrator(RetryPolicy{});
  ASSERT_TRUE(orchestrator.Run(&session).ok());
  // The replayed stage sees the checkpointed value, not the failed write.
  EXPECT_EQ(seen_on_replay, Bytes({1}));
}

TEST(SessionOrchestratorTest, BackoffScheduleIsDeterministic) {
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_jitter_rounds = 3;
  uint64_t first_backoff = 0;
  for (int run = 0; run < 2; ++run) {
    TestWorld w;
    ProtocolSession session("t", &w.net, {w.alice, w.bob});
    session.AddStage("always-fails",
                     [&] { return Status::ProtocolError("down"); });
    SessionOrchestrator orchestrator(retry);
    EXPECT_FALSE(orchestrator.Run(&session).ok());
    if (run == 0) {
      first_backoff = orchestrator.stats().backoff_rounds;
    } else {
      EXPECT_EQ(orchestrator.stats().backoff_rounds, first_backoff);
    }
  }
  // 3 retries with base 1, cap 8: deterministic 1+2+4 plus seeded jitter.
  EXPECT_GE(first_backoff, 7u);
  EXPECT_LE(first_backoff, 7u + 3u * 3u);
}

TEST(SessionOrchestratorTest, RejectsDegenerateSessions) {
  TestWorld w;
  SessionOrchestrator orchestrator(RetryPolicy{});
  EXPECT_FALSE(orchestrator.Run(nullptr).ok());

  ProtocolSession no_stages("t", &w.net, {w.alice, w.bob});
  EXPECT_FALSE(orchestrator.Run(&no_stages).ok());

  ProtocolSession one_party("t", &w.net, {w.alice});
  one_party.AddStage("s", [] { return Status::OK(); });
  EXPECT_FALSE(orchestrator.Run(&one_party).ok());

  RetryPolicy zero_attempts;
  zero_attempts.max_attempts = 0;
  SessionOrchestrator rejecting(zero_attempts);
  ProtocolSession fine("t", &w.net, {w.alice, w.bob});
  fine.AddStage("s", [] { return Status::OK(); });
  EXPECT_FALSE(rejecting.Run(&fine).ok());
}

}  // namespace
}  // namespace psi
