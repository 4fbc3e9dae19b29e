// retrace's benchmark: both sides of the paper's balance, each on a fixed
// amount of work.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 1 --trace-out <file.json>
//
// Workloads (see README.md for the make-up of each):
//   replay-lc    uServer exps 1, 3, 4 reproduced under the dynamic (lc) plan.
//   user-site    analyses + dyn+static plan + the instrumented user load.
//
// A run does its set-up once, then repeats whole passes of the same
// work until --seconds would be exceeded, and reports each timed step's
// fastest time over the passes. Searches end by reproducing or by
// spending max_runs; the wall budget is only a safety stop, and a search
// that hits it is a failed operation. Every output is checked against
// facts the code under test did not produce. Every metric is printed as
// a `metric <name> <value> <unit>` line and the operation counts as an
// `outcome <correct> <attempted> <failed>` line; run.py turns them into
// the result line. With --trace 1 the per-layer figures come from passes
// run with spans on, alternating with passes run without.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/src/trace.h"
#include "src/concolic/cellrun.h"
#include "src/instrument/syscall_log.h"

namespace perfbench {

using retrace::AnalysisResult;
using retrace::BugReport;
using retrace::CellRunConfig;
using retrace::CellRunner;
using retrace::CellRunOutput;
using retrace::CrashSite;
using retrace::ExprArena;
using retrace::InputSpec;
using retrace::InstrumentationPlan;
using retrace::Pipeline;
using retrace::PlanInputs;
using retrace::ReplayConfig;
using retrace::ReplayResult;
using retrace::ReplayStats;
using retrace::RunResult;
using retrace::Scenario;
using retrace::StaticAnalysisOptions;
using retrace::StaticAnalysisResult;
using retrace::u64;

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

namespace {

// ----- Fixed inputs (README.md: "Make-up of the inputs") -----
constexpr u64 kReplaySeed = 31;        // ReplayConfig::seed of every search.
constexpr int kLoadRequests = 2000;    // User-site load size.
constexpr u64 kLcMaxRuns = 50'000;     // replay-lc per-report run budget.
constexpr long kSafetyWallMs = 60'000;  // Safety stop only; never the planned end.
constexpr int kMinPasses = 3;

// ----- Result sink -----

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (values_.count(name) == 0) {
      order_.push_back(name);
    }
    values_[name] = Metric{value, unit};
  }
  const std::vector<std::string>& order() const { return order_; }
  const Metric& Get(const std::string& name) const { return values_.at(name); }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> values_;
};

struct Outcome {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;

  // A wrong output: the run's numbers cannot be trusted.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  // One operation attempted; `ok` false counts it failed.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
    }
  }
};

// The fastest of repeated passes over identical, deterministic work.
// Interference from other processes on the host only ever adds time,
// and it comes in episodes of tens of seconds, so the minimum is the
// estimate of the work's own cost that repeats best (README.md).
double Best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ----- Shared helpers around the layers, each call wrapped in a span -----

std::unique_ptr<Pipeline> Compile() {
  ScopedSpan span("lang.compile", "lang");
  return retrace::BuildWorkloadOrDie("userver");
}

// The user-site load: UserverLoadSpec's request multiset, served in an
// order drawn from the benchmark seed (Fisher-Yates over splitmix64).
InputSpec SeededLoad(u64 seed) {
  InputSpec spec = retrace::UserverLoadSpec(kLoadRequests);
  std::vector<retrace::i32>& order = spec.world.connection_streams;
  u64 state = seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
  auto next = [&state] {
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[next() % i]);
  }
  return spec;
}

AnalysisResult Explore(Pipeline* pipeline, const InputSpec& spec,
                       const retrace::AnalysisConfig& config) {
  ScopedSpan span("concolic.explore", "concolic");
  AnalysisResult result = pipeline->RunDynamicAnalysis(spec, config);
  GlobalTracer().Add("concolic.runs", static_cast<double>(result.runs));
  return result;
}

InstrumentationPlan LcPlan(Pipeline* pipeline) {
  const AnalysisResult lc =
      Explore(pipeline, retrace::UserverExploreSpecLC(), retrace::LowCoverageConfig());
  ScopedSpan span("instrument.plan", "instrument");
  return pipeline->MakePlan(PlanInputs::Dynamic(lc));
}

InstrumentationPlan EmptyPlan(const Pipeline& pipeline) {
  InstrumentationPlan plan;
  plan.branches = retrace::DenseBitset(pipeline.module().branches.size());
  return plan;
}

// A bug report plus what the user site observed when it was recorded.
struct RecordedReport {
  int experiment = 0;
  Scenario scenario;
  BugReport report;
  CrashSite user_crash;
};

RecordedReport Record(Pipeline* pipeline, int experiment, const InstrumentationPlan& plan,
                      Outcome* outcome) {
  RecordedReport out;
  out.experiment = experiment;
  out.scenario = retrace::UserverScenario(experiment);
  Pipeline::UserRunOptions options;
  options.policy = out.scenario.policy.get();
  ScopedSpan span("instrument.record", "instrument");
  auto user = pipeline->RecordUserRun(out.scenario.spec, plan, options);
  outcome->Check(user.ok() && user.value().result.Crashed(),
                 "user run of exp " + std::to_string(experiment) + " crashes");
  if (user.ok()) {
    out.user_crash = user.value().result.crash;
    out.report = std::move(user.value().report);
  }
  return out;
}

// One run of `spec` under `plan` with the branch recorder (or none when
// `plan` is null), and what the user site pays for it.
struct UserRun {
  RunResult result;
  double seconds = 0.0;
  u64 log_bytes = 0;
  u64 syscall_log_bytes = 0;
};

UserRun RunUserSite(CellRunner* runner, const InstrumentationPlan* plan, const char* span_name) {
  UserRun out;
  std::unique_ptr<retrace::BranchTraceRecorder> recorder;
  CellRunConfig config;
  config.symbolic_syscalls = false;
  if (plan != nullptr) {
    recorder = std::make_unique<retrace::BranchTraceRecorder>(*plan);
    config.observers = {recorder.get()};
    config.plan = plan;
  }
  CellRunOutput run;
  {
    ScopedSpan span(span_name, "exec");
    const double t0 = NowSeconds();
    run = runner->Run(config);
    out.seconds = NowSeconds() - t0;
  }
  out.result = run.result;
  if (recorder != nullptr) {
    out.log_bytes = recorder->bytes_logged();
    out.syscall_log_bytes =
        retrace::SyscallLogBytes(retrace::SyscallLogFromTrace(run.dyn_trace));
  }
  return out;
}

// Instrumented branch executions of `plan` on `spec`, counted by a
// separate observer run (not by the recorder).
u64 CountInstrumented(CellRunner* runner, const InstrumentationPlan& plan) {
  retrace::InstrumentedExecCounter counter(plan);
  CellRunConfig config;
  config.symbolic_syscalls = false;
  config.observers = {&counter};
  config.plan = &plan;
  runner->Run(config);
  return counter.count();
}

// The user-side price of a plan on the seeded load: bench_util.h's
// native-cost model and the log volume per request.
struct UserCost {
  double modeled_cpu_pct = 0.0;
  double log_bytes_per_req = 0.0;
  u64 instrumented_execs = 0;
  UserRun run;
};

UserCost MeasureUserCost(CellRunner* runner, const InstrumentationPlan& plan, Outcome* outcome,
                         const std::string& label) {
  UserCost cost;
  cost.run = RunUserSite(runner, &plan, "exec.run.instrumented");
  cost.instrumented_execs = CountInstrumented(runner, plan);
  outcome->Check(cost.run.result.status == RunResult::Status::kExit,
                 label + ": user load exits normally");
  outcome->Check(cost.run.log_bytes == (cost.instrumented_execs + 7) / 8,
                 label + ": branch-log bytes == ceil(instrumented execs / 8)");
  Pipeline::OverheadSample sample;
  sample.branch_execs = cost.run.result.stats.branch_execs;
  sample.instrumented_execs = cost.instrumented_execs;
  cost.modeled_cpu_pct = retrace::ModeledNativeCpuPercent(sample);
  cost.log_bytes_per_req =
      static_cast<double>(cost.run.log_bytes + cost.run.syscall_log_bytes) / kLoadRequests;
  return cost;
}

ReplayConfig SearchConfig(u64 max_runs) {
  ReplayConfig config = ReplayConfig::FromEnv();  // run.py scrubs RETRACE_*: the defaults.
  config.max_runs = max_runs;
  config.seed = kReplaySeed;
  config.wall_ms = kSafetyWallMs;
  config.num_workers = 1;
  config.num_shards = 1;
  return config;
}

u64 OffLogAborts(const ReplayStats& s) {
  return s.aborts_concrete_mismatch + s.aborts_log_exhausted + s.crashes_wrong_site;
}

// Checks on one search's accounting, kept on separate paths in the
// engine: the abort classes and the failure telemetry.
void CheckSearchAccounting(const ReplayResult& r, const std::string& label, Outcome* outcome) {
  const ReplayStats& s = r.stats;
  outcome->Check(s.runs == OffLogAborts(s) + s.aborts_forced_direction + (r.reproduced ? 1 : 0),
                 label + ": runs == off-log aborts + forced-direction aborts + reproduced");
  outcome->Check(s.failure_profile.TotalDeaths() == OffLogAborts(s),
                 label + ": failure_profile.TotalDeaths() == off-log aborts");
}

// Re-runs a witness concretely through CellRunner and checks it crashes
// where the user-site run crashed; then times one run without and one
// with a shadow arena.
struct WitnessTiming {
  double concrete_us = 0.0;
  double shadow_us = 0.0;
};

WitnessTiming CheckWitness(const Pipeline& pipeline, const RecordedReport& rec,
                           const ReplayResult& r, Outcome* outcome) {
  WitnessTiming timing;
  const std::string label = "exp " + std::to_string(rec.experiment) + " witness";
  CellRunner runner(pipeline.module(), rec.report.shape);
  CellRunConfig config;
  config.model = r.witness_cells;
  config.symbolic_syscalls = false;
  const CellRunOutput check = runner.Run(config);
  outcome->Check(check.result.Crashed() && check.result.crash.SameSite(rec.user_crash),
                 label + " crashes at the user-site crash site");
  // Timed on the now-warm runner, concrete and then with a shadow arena.
  double t0 = NowSeconds();
  {
    ScopedSpan span("exec.run.concrete", "exec");
    runner.Run(config);
  }
  timing.concrete_us = (NowSeconds() - t0) * 1e6;
  ExprArena arena;
  config.arena = &arena;
  t0 = NowSeconds();
  CellRunOutput shadow;
  {
    ScopedSpan span("exec.run.shadow", "exec");
    shadow = runner.Run(config);
  }
  timing.shadow_us = (NowSeconds() - t0) * 1e6;
  outcome->Check(shadow.result.Crashed() && shadow.result.crash.SameSite(rec.user_crash),
                 label + " crashes at the user-site crash site (shadow run)");
  return timing;
}

// CPU time of this process, for the pass log.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

// Page faults of this process so far, for the pass log.
long MinorFaults() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return self.ru_minflt;
}

// ----- Workloads -----
//
// Setup() runs once and is timed from process start: it compiles the
// program, runs the analyses, builds the plans, records the reports and
// measures the user-side price (MeasureUserCost) of its plans. Pass() is one pass
// of the fixed work and returns its wall seconds; Finish() runs the
// remaining checks and fills the metrics. A workload's pass_s is the sum
// over the pass's timed steps of each step's fastest time over all
// passes: interference comes in bursts shorter than a pass, so a short
// step finds a quiet window more often than a whole pass does.

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(Outcome* outcome) = 0;
  virtual double Pass(Outcome* outcome) = 0;
  // Fills `metrics`, end-to-end and per-layer alike (run.py picks).
  virtual void Finish(Outcome* outcome, Metrics* metrics) = 0;
};

// Per-report replay figures (the replay.*.expN metrics).
struct ReportFigures {
  std::vector<double> seconds;
  u64 runs = 0;
  double on_log_rate = 0.0;
  u64 pending_peak = 0;
};

void AddReportMetrics(const std::map<int, ReportFigures>& figures, Metrics* metrics) {
  for (const auto& [exp, f] : figures) {
    const std::string n = std::to_string(exp);
    metrics->Set("replay.runs.exp" + n, static_cast<double>(f.runs), "runs");
    metrics->Set("replay.us_per_run.exp" + n, Ratio(Best(f.seconds) * 1e6, f.runs), "us");
    metrics->Set("replay.on_log_rate.exp" + n, f.on_log_rate, "ratio");
    metrics->Set("replay.pending_peak.exp" + n, static_cast<double>(f.pending_peak), "count");
  }
}

void AddSolverMetrics(const ReplayStats& s, Metrics* metrics) {
  metrics->Set("solver.calls", static_cast<double>(s.solver_calls), "count");
  metrics->Set("solver.slices_solved", static_cast<double>(s.slices_solved), "count");
  metrics->Set("solver.slice_hit_rate",
             Ratio(static_cast<double>(s.slice_sat_hits),
                   static_cast<double>(s.slice_sat_hits + s.slices_solved)),
             "ratio");
}

void AddStats(ReplayStats* into, const ReplayStats& s) {
  into->runs += s.runs;
  into->solver_calls += s.solver_calls;
  into->slices_solved += s.slices_solved;
  into->slice_sat_hits += s.slice_sat_hits;
}

// replay-lc: exps 1, 3, 4 recorded and reproduced under the lc plan.
class ReplayLc : public Workload {
 public:
  explicit ReplayLc(u64 seed) : load_(SeededLoad(seed)) {}

  void Setup(Outcome* outcome) override {
    pipeline_ = Compile();
    plan_ = LcPlan(pipeline_.get());
    for (int exp : {1, 3, 4}) {
      reports_.push_back(Record(pipeline_.get(), exp, plan_, outcome));
    }
    CellRunner runner(pipeline_->module(), load_);
    cost_ = MeasureUserCost(&runner, plan_, outcome, "lc plan");
  }

  double Pass(Outcome* outcome) override {
    double pass_s = 0.0;
    u64 runs = 0;
    ReplayStats pass_stats;
    WitnessTiming witnesses;
    for (const RecordedReport& rec : reports_) {
      GlobalTracer().NewOp();
      // A fresh pipeline per search: a search interns into its pipeline's
      // arena, so a shared one would make each search depend on the ones
      // before it.
      std::unique_ptr<Pipeline> fresh = Compile();
      const std::string label = "exp " + std::to_string(rec.experiment);
      ReplayResult r;
      const double t0 = NowSeconds();
      {
        ScopedSpan span("replay.reproduce.exp" + std::to_string(rec.experiment), "replay");
        auto result = fresh->Reproduce(rec.report, plan_, SearchConfig(kLcMaxRuns));
        outcome->Check(result.ok(), label + ": plan matches the module");
        if (result.ok()) {
          r = result.take();
        }
      }
      const double seconds = NowSeconds() - t0;
      pass_s += seconds;
      runs += r.stats.runs;
      // Reproduced within max_runs, not stopped by the safety wall.
      outcome->Op(r.reproduced, label + " reproduces within max_runs");
      CheckSearchAccounting(r, label, outcome);
      ReportFigures& f = figures_[rec.experiment];
      f.seconds.push_back(seconds);
      outcome->Check(f.runs == 0 || f.runs == r.stats.runs,
                     label + ": runs_to_reproduce repeats across passes");
      f.runs = r.stats.runs;
      f.on_log_rate = Ratio(static_cast<double>(r.stats.aborts_forced_direction), r.stats.runs);
      f.pending_peak = r.stats.pending_peak;
      AddStats(&pass_stats, r.stats);
      if (r.reproduced) {
        const WitnessTiming w = CheckWitness(*fresh, rec, r, outcome);
        witnesses.concrete_us += w.concrete_us / static_cast<double>(reports_.size());
        witnesses.shadow_us += w.shadow_us / static_cast<double>(reports_.size());
      }
    }
    concrete_us_.push_back(witnesses.concrete_us);
    shadow_us_.push_back(witnesses.shadow_us);
    stats_ = pass_stats;
    runs_ = runs;
    return pass_s;
  }

  void Finish(Outcome* /*outcome*/, Metrics* metrics) override {
    double reproduce_s = 0.0;
    for (const auto& [exp, f] : figures_) {
      reproduce_s += Best(f.seconds);
    }
    metrics->Set("pass_s", reproduce_s, "s");
    metrics->Set("us_per_op", Ratio(reproduce_s * 1e6, runs_), "us");
    metrics->Set("modeled_cpu_pct", cost_.modeled_cpu_pct, "%");
    metrics->Set("log_bytes_per_req", cost_.log_bytes_per_req, "B");
    metrics->Set("replay.runs_to_reproduce", static_cast<double>(runs_), "runs");
    AddReportMetrics(figures_, metrics);
    AddSolverMetrics(stats_, metrics);
    metrics->Set("exec.concrete_run_us", Best(concrete_us_), "us");
    metrics->Set("exec.shadow_run_us", Best(shadow_us_), "us");
    metrics->Set("instrument.logged_branches", static_cast<double>(plan_.NumInstrumented()),
               "count");
  }

 private:
  InputSpec load_;
  std::unique_ptr<Pipeline> pipeline_;
  InstrumentationPlan plan_;
  UserCost cost_;
  std::vector<RecordedReport> reports_;
  std::map<int, ReportFigures> figures_;
  std::vector<double> concrete_us_;
  std::vector<double> shadow_us_;
  ReplayStats stats_;
  u64 runs_ = 0;
};

// user-site: analyses, the dyn+static plan, and the instrumented load.
class UserSite : public Workload {
 public:
  explicit UserSite(u64 seed) : load_(SeededLoad(seed)) {}

  void Setup(Outcome* outcome) override {
    pipeline_ = Compile();
    plan_ = Analyze(pipeline_.get());
    // One runner for every pass: it pools engine state across runs, so
    // only the very first run pays for warming it.
    runner_ = std::make_unique<CellRunner>(pipeline_->module(), load_);
    CellRunner* runner = runner_.get();
    deployed_ = MeasureUserCost(runner, plan_, outcome, "deployed plan");
    empty_ = MeasureUserCost(runner, EmptyPlan(*pipeline_), outcome, "empty plan");
    lc_ = MeasureUserCost(runner, LcPlan(pipeline_.get()), outcome, "lc plan");
    all_ = MeasureUserCost(runner, pipeline_->MakePlan(PlanInputs::AllBranches()), outcome,
                           "all-branches plan");
  }

  double Pass(Outcome* outcome) override {
    std::unique_ptr<Pipeline> fresh = Compile();
    const double t0 = NowSeconds();
    const InstrumentationPlan plan = Analyze(fresh.get());
    analysis_s_.push_back(NowSeconds() - t0);
    const UserRun plain = RunUserSite(runner_.get(), nullptr, "exec.run.plain");
    const UserRun inst = RunUserSite(runner_.get(), &plan, "exec.run.instrumented");
    const double pass_s = NowSeconds() - t0;
    outcome->Op(plain.result.status == RunResult::Status::kExit &&
                    inst.result.status == RunResult::Status::kExit,
                "user load runs to a normal exit");
    outcome->Check(plan.branches == plan_.branches, "analyses repeat the deployed plan");
    outcome->Check(plain.result.stats.instrs == inst.result.stats.instrs &&
                       plain.result.stats.branch_execs == inst.result.stats.branch_execs,
                   "instrumentation does not change the executed program");
    plain_s_.push_back(plain.seconds);
    inst_s_.push_back(inst.seconds);
    instrs_ = plain.result.stats.instrs;
    return pass_s;
  }

  void Finish(Outcome* outcome, Metrics* metrics) override {
    const UserCost& deployed = deployed_;
    for (const UserCost* c : {&empty_, &lc_, &all_}) {
      outcome->Check(c->run.result.stats.instrs == deployed.run.result.stats.instrs &&
                         c->run.result.stats.branch_execs ==
                             deployed.run.result.stats.branch_execs,
                     "empty, lc, deployed and all-branches plans execute the same program");
    }
    outcome->Check(empty_.instrumented_execs == 0 && empty_.run.log_bytes == 0,
                   "the empty plan logs nothing");
    outcome->Check(all_.instrumented_execs == all_.run.result.stats.branch_execs,
                   "the all-branches plan instruments every branch execution");
    const double inst = Best(inst_s_);
    const double plain = Best(plain_s_);
    metrics->Set("pass_s", Best(analysis_s_) + plain + inst, "s");
    metrics->Set("us_per_op", inst * 1e6 / kLoadRequests, "us");
    metrics->Set("modeled_cpu_pct", deployed.modeled_cpu_pct, "%");
    metrics->Set("log_bytes_per_req", deployed.log_bytes_per_req, "B");
    metrics->Set("analysis.total_s", Best(analysis_s_), "s");
    metrics->Set("exec.user_req_per_s", Ratio(kLoadRequests, inst), "req/s");
    metrics->Set("exec.plain_mips", Ratio(static_cast<double>(instrs_), plain) / 1e6, "Minstr/s");
    metrics->Set("instrument.recorder_s", inst - plain, "s");
    metrics->Set("instrument.logged_branches", static_cast<double>(plan_.NumInstrumented()),
               "count");
    metrics->Set("instrument.logged_execs_per_req",
               static_cast<double>(deployed.instrumented_execs) / kLoadRequests, "count");
    metrics->Set("vos.syscalls_per_req",
               static_cast<double>(deployed.run.result.stats.syscalls) / kLoadRequests, "count");
    metrics->Set("vos.syscall_log_bytes", static_cast<double>(deployed.run.syscall_log_bytes), "B");
  }

 private:
  // HC dynamic analysis + opaque static analysis -> the dyn+static plan.
  static InstrumentationPlan Analyze(Pipeline* pipeline) {
    const AnalysisResult hc =
        Explore(pipeline, retrace::UserverExploreSpec(), retrace::HighCoverageConfig());
    StaticAnalysisResult stat;
    {
      ScopedSpan span("analysis.static", "analysis");
      StaticAnalysisOptions opaque;
      opaque.analyze_library = false;
      stat = pipeline->RunStaticAnalysis(opaque);
    }
    ScopedSpan span("instrument.plan", "instrument");
    return pipeline->MakePlan(PlanInputs::DynamicStatic(hc, stat));
  }

  InputSpec load_;
  std::unique_ptr<Pipeline> pipeline_;
  std::unique_ptr<CellRunner> runner_;
  InstrumentationPlan plan_;
  UserCost deployed_, empty_, lc_, all_;  // Measured in set-up.
  std::vector<double> analysis_s_;
  std::vector<double> plain_s_;
  std::vector<double> inst_s_;
  u64 instrs_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, u64 seed) {
  if (name == "replay-lc") return std::make_unique<ReplayLc>(seed);
  if (name == "user-site") return std::make_unique<UserSite>(seed);
  return nullptr;
}

// ----- Per-layer figures read off the traced passes' spans -----

void AddSpanMetrics(const Tracer& tracer, Metrics* metrics) {
  auto mean = [&](const char* name) {
    const size_t n = tracer.Count(name);
    return n == 0 ? 0.0 : tracer.TotalSeconds(name) / static_cast<double>(n);
  };
  metrics->Set("lang.compile_s", mean("lang.compile"), "s");
  metrics->Set("concolic.explore_s", mean("concolic.explore"), "s");
  metrics->Set("analysis.static_s", mean("analysis.static"), "s");
  metrics->Set("instrument.plan_s", mean("instrument.plan"), "s");
  metrics->Set("instrument.record_s", mean("instrument.record"), "s");
  const double runs = tracer.Counter("concolic.runs");
  metrics->Set("concolic.runs", Ratio(runs, tracer.Count("concolic.explore")), "runs");
  metrics->Set("concolic.us_per_run", Ratio(tracer.TotalSeconds("concolic.explore") * 1e6, runs),
             "us");
  metrics->Set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload replay-lc|user-site "
               "--seed N --seconds S --trace 0 | --trace 1 --trace-out FILE\n");
  return 2;
}

int Main(int argc, char** argv) {
  NowSeconds();  // Starts the clock: set-up is timed from here.
  std::string workload_name;
  std::string trace_out;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> workload = MakeWorkload(workload_name, seed);
  if (workload == nullptr || argc % 2 == 0 || !(seconds > 0.0) ||
      trace != !trace_out.empty()) {
    return Usage();
  }

  const ReplayConfig defaults = ReplayConfig::FromEnv();
  std::printf("# workload %s seed %" PRIu64 " seconds %g trace %d\n", workload_name.c_str(), seed,
              seconds, trace ? 1 : 0);
  std::printf("# defaults: engine %s, solver_cache %d, pick %s, workers %u, shards %u\n",
              retrace::ExecEngineKindName(retrace::ResolveExecEngineKind(defaults.engine)),
              defaults.solver_cache ? 1 : 0, retrace::ReplayPickName(), defaults.num_workers,
              defaults.num_shards);

  Tracer& tracer = GlobalTracer();
  Outcome outcome;
  tracer.set_enabled(trace);
  {
    ScopedSpan span("setup." + workload_name, "bench");
    workload->Setup(&outcome);
  }
  const double setup_s = NowSeconds();

  // Whole passes until the next one would overrun --seconds. Traced
  // runs alternate untraced and traced passes (first untraced), so the
  // tracing overhead is measured on the same work in the same process.
  std::vector<double> pass_s, traced_pass_s;
  const double start = NowSeconds();
  for (int pass = 0;; ++pass) {
    const bool traced = trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    tracer.NewOp();
    const double cpu0 = CpuSeconds();
    const long faults0 = MinorFaults();
    double seconds_this_pass = 0.0;
    {
      ScopedSpan span("pass." + workload_name, "bench");
      seconds_this_pass = workload->Pass(&outcome);
    }
    std::printf("# pass %d%s: %.4f s wall, %.4f s cpu, %ld page faults\n", pass,
                traced ? " (traced)" : "", seconds_this_pass, CpuSeconds() - cpu0,
                MinorFaults() - faults0);
    (traced ? traced_pass_s : pass_s).push_back(seconds_this_pass);
    const double elapsed = NowSeconds() - start;
    const int done = pass + 1;
    const int min_passes = trace ? kMinPasses + 1 : kMinPasses;
    if (done >= min_passes && elapsed + elapsed / done > seconds) {
      std::printf("# passes %d (%zu traced) in %.3f s\n", done, traced_pass_s.size(), elapsed);
      break;
    }
  }
  tracer.set_enabled(false);

  Metrics metrics;
  metrics.Set("setup_s", setup_s, "s");
  workload->Finish(&outcome, &metrics);
  metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (trace) {
    AddSpanMetrics(tracer, &metrics);
    metrics.Set("trace.overhead_pct", 100.0 * (Best(traced_pass_s) / Best(pass_s) - 1.0), "%");
    outcome.Check(tracer.WriteChromeTrace(trace_out), "trace written to " + trace_out);
    std::printf("# trace %s (%zu spans)\n", trace_out.c_str(), tracer.spans().size());
  }

  // run.py turns these lines into the result line, picking the metrics
  // BENCHMARK.json names for the --trace mode.
  for (const std::string& name : metrics.order()) {
    std::printf("metric %s %.10g %s\n", name.c_str(), metrics.Get(name).value,
                metrics.Get(name).unit.c_str());
  }
  std::printf("outcome %s %" PRIu64 " %" PRIu64 "\n", outcome.correct ? "true" : "false",
              outcome.attempted, outcome.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
