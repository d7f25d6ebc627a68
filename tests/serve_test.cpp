// Tests for the scenario service (src/serve): shard planning, the
// bitwise outcome payload round trip, deterministic shard-index-order
// merging (arrival-order permutation test), the JobTable state machine
// (backpressure, crash/retry, whole-report jobs), and the daemon end
// to end over a Unix socket — including the worker-crash and
// worker-hang fault-injection hooks, whose merged reports must stay
// byte-identical to a single-process `rats run`.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "exp/session.hpp"
#include "report/render.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "serve/jobs.hpp"
#include "serve/shard.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "serve/client.hpp"
#include "serve/daemon.hpp"
#endif

namespace rats::serve {
namespace {

// A 2 entries x 2 algorithms experiment — 4 runs, enough to split into
// non-trivial shards while staying fast.
const char* kTinyExperiment =
    "[scenario]\n"
    "name = \"serve-tiny\"\n"
    "kind = \"experiment\"\n"
    "[platform]\n"
    "name = \"mini\"\n"
    "nodes = 4\n"
    "[workload]\n"
    "source = \"generate\"\n"
    "generator = \"strassen\"\n"
    "count = 2\n"
    "[algorithm]\n"
    "name = \"HCPA\"\n"
    "kind = \"hcpa\"\n"
    "[algorithm]\n"
    "name = \"CPA\"\n"
    "kind = \"cpa\"\n";

// A generic sweep — its matrix nests per-point batches behind
// OffsetSession, the trickiest inject() forwarding path.
const char* kTinySweep =
    "[scenario]\n"
    "name = \"serve-sweep\"\n"
    "kind = \"sweep\"\n"
    "[platform]\n"
    "name = \"mini\"\n"
    "nodes = 4\n"
    "[workload]\n"
    "source = \"generate\"\n"
    "generator = \"fft\"\n"
    "count = 1\n"
    "fft-k = 4\n"
    "[sweep]\n"
    "base = \"delta\"\n"
    "mindelta = [-0.5, 0]\n"
    "maxdelta = [0.5]\n";

// Kind "single" needs per-task timelines — not shardable, served as
// one whole-report shard through the parse_json round trip.
const char* kTinySingle =
    "[scenario]\n"
    "name = \"serve-single\"\n"
    "kind = \"single\"\n"
    "[platform]\n"
    "name = \"mini\"\n"
    "nodes = 4\n"
    "[workload]\n"
    "source = \"generate\"\n"
    "generator = \"fft\"\n"
    "count = 1\n"
    "fft-k = 2\n"
    "[algorithm]\n"
    "name = \"HCPA\"\n"
    "kind = \"hcpa\"\n";

std::string direct_json(const std::string& text) {
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_string(text, "<direct>");
  return report::render_json(scenario::build_report(spec));
}

/// Records every outcome of a real (non-injected) matrix pass.
class CaptureSession final : public RunSession {
 public:
  void begin_matrix(std::size_t runs) override { outcomes_.resize(runs); }
  TraceSink* begin_run(std::size_t, const RunMeta&) override {
    return nullptr;
  }
  void end_run(std::size_t run, const RunOutcome& outcome) override {
    outcomes_[run] = outcome;
  }
  const std::vector<RunOutcome>& outcomes() const { return outcomes_; }

 private:
  std::vector<RunOutcome> outcomes_;
};

bool outcomes_bitwise_equal(const RunOutcome& a, const RunOutcome& b) {
  return a.makespan == b.makespan && a.work == b.work &&
         a.faults.tasks_killed == b.faults.tasks_killed &&
         a.faults.tasks_remapped == b.faults.tasks_remapped &&
         a.faults.redists_aborted == b.faults.redists_aborted &&
         a.faults.capacity_seconds_lost == b.faults.capacity_seconds_lost &&
         a.faults.node_seconds_down == b.faults.node_seconds_down;
}

TEST(ServeShard, ShardableKindsAreTheTraceableMatrixKinds) {
  EXPECT_TRUE(kind_shardable("experiment"));
  EXPECT_TRUE(kind_shardable("fig2"));
  EXPECT_TRUE(kind_shardable("sweep"));
  EXPECT_FALSE(kind_shardable("single"));  // needs per-task timelines
  EXPECT_FALSE(kind_shardable("table1"));  // untraceable static report
  EXPECT_FALSE(kind_shardable("no-such-kind"));
}

TEST(ServeShard, PlanPartitionsTheMatrixContiguously) {
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_string(kTinyExperiment, "<plan>");
  const ShardPlan plan = plan_shards(spec, 3);
  EXPECT_TRUE(plan.sharded);
  EXPECT_EQ(plan.total_runs, 4u);  // 2 entries x 2 algorithms
  ASSERT_EQ(plan.shards.size(), 3u);
  std::size_t expect_begin = 0;
  for (const ShardRange& s : plan.shards) {
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_LT(s.begin, s.end);
    expect_begin = s.end;
  }
  EXPECT_EQ(expect_begin, plan.total_runs);

  // More shards than runs degrade to one run per shard, never empties.
  const ShardPlan wide = plan_shards(spec, 16);
  EXPECT_EQ(wide.shards.size(), 4u);

  // Non-shardable kinds plan exactly one whole-report shard.
  const ShardPlan whole = plan_shards(
      scenario::parse_scenario_string(kTinySingle, "<plan>"), 3);
  EXPECT_FALSE(whole.sharded);
  EXPECT_EQ(whole.shards.size(), 1u);
}

TEST(ServeShard, PayloadRoundTripIsBitwiseExact) {
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_string(kTinyExperiment, "<payload>");
  CaptureSession capture;
  scenario::build_report(spec, &capture);
  const std::vector<RunOutcome>& want = capture.outcomes();
  ASSERT_EQ(want.size(), 4u);

  const ShardOutcomes got =
      parse_shard_payload(run_shard_payload(spec, 1, 3, 4));
  EXPECT_EQ(got.begin, 1u);
  ASSERT_EQ(got.outcomes.size(), 2u);
  for (std::size_t i = 0; i < got.outcomes.size(); ++i)
    EXPECT_TRUE(outcomes_bitwise_equal(got.outcomes[i], want[1 + i]))
        << "outcome " << i << " drifted through the payload";

  // Planner/worker matrix-size mismatch (spec drift) must throw.
  EXPECT_THROW(run_shard_payload(spec, 0, 2, 5), Error);
}

TEST(ServeShard, MergedBytesInvariantUnderArrivalOrder) {
  for (const char* text : {kTinyExperiment, kTinySweep}) {
    SCOPED_TRACE(text);
    const std::string want = direct_json(text);
    const scenario::ScenarioSpec spec =
        scenario::parse_scenario_string(text, "<merge>");
    const ShardPlan plan = plan_shards(spec, 3);
    ASSERT_EQ(plan.shards.size(), 3u);

    std::vector<std::string> payloads;
    for (const ShardRange& s : plan.shards)
      payloads.push_back(
          run_shard_payload(spec, s.begin, s.end, plan.total_runs));

    // Every arrival order of the three shards merges to the same bytes
    // as the single-process run: the merge orders by shard index, and
    // outcomes land at absolute run indices.
    std::vector<std::size_t> arrival{0, 1, 2};
    do {
      JobTable table(JobConfig{8, 3, 250});
      const auto submitted = table.submit(text);
      ASSERT_TRUE(submitted.accepted) << submitted.error;
      JobTable::Dispatch d;
      std::vector<JobTable::Dispatch> dispatched;
      while (table.next_dispatch(d)) dispatched.push_back(d);
      ASSERT_EQ(dispatched.size(), 3u);
      for (const std::size_t i : arrival)
        table.shard_done(dispatched[i].job_id, dispatched[i].shard,
                         payloads[dispatched[i].shard]);
      const std::string* merged = table.result(submitted.job_id);
      ASSERT_NE(merged, nullptr);
      EXPECT_EQ(*merged, want);
    } while (std::next_permutation(arrival.begin(), arrival.end()));
  }
}

TEST(ServeJobs, WholeReportJobRoundTripsThroughParseJson) {
  const std::string want = direct_json(kTinySingle);
  JobTable table(JobConfig{8, 4, 250});
  const auto submitted = table.submit(kTinySingle);
  ASSERT_TRUE(submitted.accepted) << submitted.error;
  EXPECT_EQ(submitted.shards, 1u);

  JobTable::Dispatch d;
  ASSERT_TRUE(table.next_dispatch(d));
  EXPECT_FALSE(d.sharded);
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_string(d.spec_text, "<whole>");
  table.shard_done(d.job_id, d.shard, run_whole_payload(spec));
  const std::string* merged = table.result(submitted.job_id);
  ASSERT_NE(merged, nullptr);
  // parse_json(render_json(model)) re-rendered on the daemon side must
  // reproduce the document byte for byte.
  EXPECT_EQ(*merged, want);
}

TEST(ServeJobs, BoundedQueueRejectsWithRetryHint) {
  JobTable table(JobConfig{1, 2, 123});
  const auto first = table.submit(kTinyExperiment);
  ASSERT_TRUE(first.accepted);

  const auto second = table.submit(kTinyExperiment);
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.retry_after_ms, 123);  // transient: try again
  EXPECT_EQ(table.stats().jobs_rejected, 1);

  // Draining the first job frees the slot.
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_string(kTinyExperiment, "<queue>");
  JobTable::Dispatch d;
  while (table.next_dispatch(d))
    table.shard_done(d.job_id, d.shard,
                     run_shard_payload(spec, d.begin, d.end, d.total));
  EXPECT_EQ(table.status(first.job_id).state, "done");
  EXPECT_TRUE(table.submit(kTinyExperiment).accepted);
}

TEST(ServeJobs, MalformedSpecRejectedWithoutRetryHint) {
  JobTable table(JobConfig{8, 2, 250});
  const auto r = table.submit("[scenario]\nkind = \"no-such-kind\"\n");
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.retry_after_ms, 0);  // permanent: retrying cannot help
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(table.stats().jobs_rejected, 1);
}

TEST(ServeJobs, CrashedShardRetriedOnceThenJobFails) {
  JobTable table(JobConfig{8, 2, 250});
  const auto submitted = table.submit(kTinyExperiment);
  ASSERT_TRUE(submitted.accepted);

  JobTable::Dispatch d;
  ASSERT_TRUE(table.next_dispatch(d));
  // First failure: requeued for one retry.
  EXPECT_TRUE(table.shard_failed(d.job_id, d.shard, "worker died"));
  EXPECT_EQ(table.stats().shards_retried, 1);
  EXPECT_EQ(table.status(submitted.job_id).state, "running");

  // The retry dispatch hands out the same shard again.
  JobTable::Dispatch retry;
  ASSERT_TRUE(table.next_dispatch(retry));
  EXPECT_EQ(retry.shard, d.shard);

  // Second failure: the job fails with the diagnostic.
  EXPECT_FALSE(table.shard_failed(retry.job_id, retry.shard, "worker died"));
  const auto status = table.status(submitted.job_id);
  EXPECT_EQ(status.state, "failed");
  EXPECT_NE(status.error.find("twice"), std::string::npos);
  EXPECT_NE(status.error.find("worker died"), std::string::npos);
  EXPECT_EQ(table.result(submitted.job_id), nullptr);
}

TEST(ServeJobs, FinishedJobsAreEvictedBeyondBoundedHistory) {
  // finished_keep = 2: a long-lived table must not accumulate every
  // done job's result/payloads forever.
  JobTable table(JobConfig{8, 2, 250, 2});
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_string(kTinyExperiment, "<evict>");
  std::vector<std::string> ids;
  for (int round = 0; round < 3; ++round) {
    const auto submitted = table.submit(kTinyExperiment);
    ASSERT_TRUE(submitted.accepted) << submitted.error;
    ids.push_back(submitted.job_id);
    JobTable::Dispatch d;
    while (table.next_dispatch(d))
      table.shard_done(d.job_id, d.shard,
                       run_shard_payload(spec, d.begin, d.end, d.total));
    ASSERT_EQ(table.status(submitted.job_id).state, "done");
  }
  // Oldest finished job fell off the history; the two newest survive
  // with fetchable results.  Cumulative stats are unaffected.
  EXPECT_FALSE(table.status(ids[0]).known);
  EXPECT_EQ(table.result(ids[0]), nullptr);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_TRUE(table.status(ids[i]).known);
    EXPECT_NE(table.result(ids[i]), nullptr);
  }
  EXPECT_EQ(table.stats().jobs_done, 3);
  EXPECT_EQ(table.active_jobs(), 0u);

  // A failed job enters the same bounded history (and evicts).
  const auto failing = table.submit(kTinyExperiment);
  ASSERT_TRUE(failing.accepted);
  JobTable::Dispatch d;
  ASSERT_TRUE(table.next_dispatch(d));
  table.shard_failed(d.job_id, d.shard, "boom");
  ASSERT_TRUE(table.next_dispatch(d));
  table.shard_failed(d.job_id, d.shard, "boom");
  EXPECT_EQ(table.status(failing.job_id).state, "failed");
  EXPECT_FALSE(table.status(ids[1]).known);  // pushed out by the new entry
}

TEST(ServeJobs, LateResultForEvictedJobIsIgnored) {
  JobTable table(JobConfig{8, 2, 250, 1});
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_string(kTinyExperiment, "<late>");
  const auto first = table.submit(kTinyExperiment);
  ASSERT_TRUE(first.accepted);
  std::vector<JobTable::Dispatch> pending;
  JobTable::Dispatch d;
  while (table.next_dispatch(d)) pending.push_back(d);
  for (const JobTable::Dispatch& p : pending)
    table.shard_done(p.job_id, p.shard,
                     run_shard_payload(spec, p.begin, p.end, p.total));

  // Evict `first` by finishing a second job, then deliver a stale
  // shard result for it: must be a silent no-op, not a crash.
  const auto second = table.submit(kTinyExperiment);
  ASSERT_TRUE(second.accepted);
  while (table.next_dispatch(d))
    table.shard_done(d.job_id, d.shard,
                     run_shard_payload(spec, d.begin, d.end, d.total));
  ASSERT_FALSE(table.status(first.job_id).known);
  EXPECT_NO_THROW(table.shard_done(pending.front().job_id,
                                   pending.front().shard, "stale"));
  EXPECT_NO_THROW(table.shard_failed(pending.front().job_id,
                                     pending.front().shard, "stale"));
  EXPECT_EQ(table.status(second.job_id).state, "done");
}

TEST(ServeJobs, CrashHookArmsFirstDispatchOnly) {
  JobTable table(JobConfig{8, 2, 250});
  const auto submitted = table.submit(kTinyExperiment, /*crash_first=*/true);
  ASSERT_TRUE(submitted.accepted);
  JobTable::Dispatch first, second;
  ASSERT_TRUE(table.next_dispatch(first));
  EXPECT_TRUE(first.crash);
  ASSERT_TRUE(table.next_dispatch(second));
  EXPECT_FALSE(second.crash);
  // The retry of the crashed shard runs clean as well.
  EXPECT_TRUE(table.shard_failed(first.job_id, first.shard, "crashed"));
  JobTable::Dispatch retry;
  ASSERT_TRUE(table.next_dispatch(retry));
  EXPECT_EQ(retry.shard, first.shard);
  EXPECT_FALSE(retry.crash);
}

#if defined(__unix__) || defined(__APPLE__)

/// Forks a daemon on `socket_path` and waits until it accepts
/// connections.  Returns the daemon pid.
pid_t spawn_daemon(const DaemonOptions& options) {
  const pid_t pid = fork();
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    ::dup2(null, 1);
    ::dup2(null, 2);
    _exit(run_daemon(options));
  }
  for (int i = 0; i < 200; ++i) {
    try {
      request(options.socket_path, "{\"cmd\":\"ping\"}");
      return pid;
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  ADD_FAILURE() << "daemon never came up on " << options.socket_path;
  return pid;
}

int shutdown_daemon(const std::string& socket_path, pid_t pid) {
  request(socket_path, "{\"cmd\":\"shutdown\"}");
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(ServeDaemon, ServedReportsAreByteIdenticalToDirectRuns) {
  DaemonOptions options;
  options.socket_path = testing::TempDir() + "serve_e2e.sock";
  options.workers = 2;
  const pid_t pid = spawn_daemon(options);

  // Sharded, whole-report, and sweep jobs through real workers.
  for (const char* text : {kTinyExperiment, kTinySingle, kTinySweep})
    EXPECT_EQ(submit_and_wait(options.socket_path, text), direct_json(text));

  const json::Value stats =
      request_json(options.socket_path, "{\"cmd\":\"stats\"}");
  EXPECT_EQ(stats.get_int("jobs_done"), 3);
  EXPECT_EQ(stats.get_int("jobs_failed"), 0);
  EXPECT_EQ(stats.get_int("shards_retried"), 0);

  const int status = shutdown_daemon(options.socket_path, pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "daemon did not shut down cleanly";
}

TEST(ServeDaemon, DeeplyNestedLineGetsAnErrorAndTheDaemonKeepsServing) {
  DaemonOptions options;
  options.socket_path = testing::TempDir() + "serve_nesting.sock";
  options.workers = 1;
  const pid_t pid = spawn_daemon(options);

  const json::Value reply =
      request_json(options.socket_path, std::string(100000, '['));
  EXPECT_EQ(reply.get_int("ok", -1), 0);
  EXPECT_NE(reply.get_string("error").find("bad request"), std::string::npos);
  EXPECT_EQ(request(options.socket_path, "{\"cmd\":\"ping\"}"), "{\"ok\":1}");

  const int status = shutdown_daemon(options.socket_path, pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(ServeDaemon, WorkerCrashMidShardStillMergesIdenticalBytes) {
  DaemonOptions options;
  options.socket_path = testing::TempDir() + "serve_crash.sock";
  options.workers = 2;
  const pid_t pid = spawn_daemon(options);

  SubmitOptions crash;
  crash.crash_test = true;  // first dispatched shard _exit()s its worker
  EXPECT_EQ(submit_and_wait(options.socket_path, kTinyExperiment, crash),
            direct_json(kTinyExperiment));

  const json::Value stats =
      request_json(options.socket_path, "{\"cmd\":\"stats\"}");
  EXPECT_EQ(stats.get_int("shards_retried"), 1);
  EXPECT_EQ(stats.get_int("worker_restarts"), 1);
  EXPECT_EQ(stats.get_int("jobs_failed"), 0);

  const int status = shutdown_daemon(options.socket_path, pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(ServeDaemon, WatchdogKillsHungWorkerAndTheJobStillSucceeds) {
  DaemonOptions options;
  options.socket_path = testing::TempDir() + "serve_hang.sock";
  options.workers = 2;
  options.shard_timeout = 0.5;  // hung shard is SIGKILLed fast
  const pid_t pid = spawn_daemon(options);

  SubmitOptions hang;
  hang.hang_test = true;  // first dispatched shard wedges its worker
  EXPECT_EQ(submit_and_wait(options.socket_path, kTinyExperiment, hang),
            direct_json(kTinyExperiment));

  const json::Value stats =
      request_json(options.socket_path, "{\"cmd\":\"stats\"}");
  EXPECT_EQ(stats.get_int("shards_retried"), 1);
  EXPECT_EQ(stats.get_int("worker_restarts"), 1);

  const int status = shutdown_daemon(options.socket_path, pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

#endif  // unix

}  // namespace
}  // namespace rats::serve
