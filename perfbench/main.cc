// MDV load benchmark: one seeded, single-threaded, closed-loop load
// generator that drives a whole MDV deployment through its public API
// (MdvSystem, MetadataProvider, LocalMetadataRepository,
// Network::WaitQuiescent, rules::CompileRule/LintRule, the obs registry
// and tracer). See README.md in this directory for the workloads and
// every metric.
//
//   mdv_perfbench --workload publish_mix --seed 1 --seconds 10 --trace 0
//
// Prints progress lines, `metric <name> <value> <unit>` lines and, last,
// one JSON object {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "generator.h"
#include "mdv/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/schema.h"
#include "rdf/writer.h"
#include "rules/compiler.h"
#include "rules/evaluator.h"
#include "rules/lint.h"
#include "trace_book.h"

#ifndef MDV_PERFBENCH_BUILD_TYPE
#define MDV_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace mdv::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kQuiesceTimeoutUs = 10'000'000;
constexpr int kShards = 4;
constexpr int kWorkers = 2;

/// Lines the system logged (the log sink may run on any thread).
std::atomic<int64_t> g_log_lines{0};

// ---- Configuration. ----------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_run";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

struct WorkloadSpec {
  std::string name;
  WorkloadShape shape;
  double drop_probability = 0;
  bool durable = false;
  int setups = 5;  ///< Set-ups per run; setup_s is their median.
};

std::optional<WorkloadSpec> SpecFor(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  WorkloadShape& s = spec.shape;
  if (name == "publish_mix") {
    s.mdps = 2;
    s.lmrs = 4;
    s.setup_rules = 500;
    s.setup_docs = 1000;
    s.register_pct = 35;
    s.update_pct = 30;
    s.delete_pct = 15;
    s.query_pct = 20;
    spec.drop_probability = 0.01;
  } else if (name == "subscribe_churn") {
    s.mdps = 2;
    s.lmrs = 4;
    s.setup_rules = 2000;
    s.setup_docs = 100;
    // Updates only: the heaviest publish path against the large rule
    // base, and one narrow latency mode for the few samples a run takes.
    s.update_pct = 100;
    s.churn = true;
    s.mutation_every = 20;
    s.duplicate_pct = 10;
    spec.setups = 3;  // Each set-up takes seconds: 2,000 subscribes.
  } else if (name == "durable_restart") {
    s.mdps = 1;
    s.lmrs = 2;
    s.setup_rules = 300;
    s.setup_docs = 500;
    // Update-heavy, so the median mutation falls inside the update
    // latency mode rather than in the gap between the register and
    // update modes, where a run's few hundred samples would let it jump.
    s.register_pct = 15;
    s.update_pct = 70;
    s.delete_pct = 15;
    s.cycle_steps = 41;
    s.subscribe_every = 20;
    spec.durable = true;
  } else {
    return std::nullopt;
  }
  return spec;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "arguments come in --key value pairs\n");
    return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

// ---- Small helpers. ----------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double UsSince(int64_t start_ns) {
  return static_cast<double>(obs::NowNs() - start_ns) / 1000.0;
}

/// Restricts the process, and every thread it starts from now on, to
/// the first CPU it may run on. Returns that CPU, or -1 on failure.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// How many CPU-bound threads this host really runs at once: the
/// throughput of `nproc` spinning threads over that of one.
double EffectiveParallelism(unsigned nproc) {
  auto spin = [](int64_t iterations) {
    volatile uint64_t x = 1;
    for (int64_t i = 0; i < iterations; ++i) x = x * 6364136223846793005ull + 1;
  };
  constexpr int64_t kIterations = 20'000'000;
  const int64_t t0 = obs::NowNs();
  spin(kIterations);
  const double one = static_cast<double>(obs::NowNs() - t0);
  std::vector<std::thread> threads;
  const int64_t t1 = obs::NowNs();
  for (unsigned i = 0; i < nproc; ++i) threads.emplace_back(spin, kIterations);
  for (std::thread& t : threads) t.join();
  const double all = static_cast<double>(obs::NowNs() - t1);
  return all > 0 ? nproc * one / all : 0;
}

// ---- The deployment under test. ---------------------------------------

struct Subscription {
  int lmr = 0;
  pubsub::SubscriptionId id = 0;
  std::string text;
};

/// The network counters the report uses, summed over every network
/// instance of the run (a restart replaces the network).
struct NetTotals {
  net::LinkStats link;
  net::TransportStats transport;

  void Add(const Network& network) {
    const net::LinkStats l = network.link_stats();
    const net::TransportStats t = network.transport_stats();
    link.published += l.published;
    link.redelivered += l.redelivered;
    link.dedup_suppressed += l.dedup_suppressed;
    link.dead_lettered += l.dead_lettered;
    transport.sent += t.sent;
    transport.bytes_sent += t.bytes_sent;
  }
};

class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, std::string wal_root)
      : spec_(spec), wal_root_(std::move(wal_root)) {}

  ~Deployment() { Crash(); }

  /// Builds the system; durable deployments recover whatever their WAL
  /// directories hold. Fills the open/recover timings.
  Status Open() {
    filter::RuleStoreOptions rule_options;
    rule_options.num_shards = kShards;
    filter::EngineOptions engine_options;
    engine_options.num_workers = kWorkers;
    NetworkOptions net_options;
    net_options.asynchronous = true;
    // 150 us ± 100 us of synthetic one-way latency.
    net_options.transport.latency_us = 50;
    net_options.transport.jitter_us = 200;
    net_options.transport.queue_capacity = 1 << 14;
    net_options.transport.faults.drop_probability = spec_.drop_probability;
    net_options.transport.faults.seed = 0x5EED0000ull + opens_;
    system_ = std::make_unique<MdvSystem>(rdf::MakeObjectGlobeSchema(),
                                          rule_options, net_options,
                                          engine_options);
    ++opens_;
    mdps_.clear();
    lmrs_.clear();
    const int64_t t0 = obs::NowNs();
    for (int i = 0; i < spec_.shape.mdps; ++i) {
      if (spec_.durable) {
        MDV_ASSIGN_OR_RETURN(MetadataProvider * mdp,
                             system_->AddDurableProvider(
                                 WalOptions("mdp" + std::to_string(i))));
        mdps_.push_back(mdp);
      } else {
        mdps_.push_back(system_->AddProvider());
      }
    }
    mdp_open_ms_ = UsSince(t0) / 1000.0;
    lmr_open_ms_.clear();
    for (int i = 0; i < spec_.shape.lmrs; ++i) {
      MetadataProvider* home = mdps_[i % mdps_.size()];
      if (spec_.durable) {
        const int64_t t = obs::NowNs();
        MDV_ASSIGN_OR_RETURN(
            LocalMetadataRepository * lmr,
            system_->AddDurableRepository(
                WalOptions("lmr" + std::to_string(i)), home));
        lmr_open_ms_.push_back(UsSince(t) / 1000.0);
        lmrs_.push_back(lmr);
      } else {
        lmrs_.push_back(system_->AddRepository(home));
      }
    }
    return Status::OK();
  }

  /// Destroys the system without a final checkpoint, as a crash would
  /// (the OS page cache survives: the reopen is in-process).
  void Crash() {
    if (system_ == nullptr) return;
    net_totals_.Add(system_->network());
    mdps_.clear();
    lmrs_.clear();
    system_.reset();
  }

  void RemoveWal() { fs::remove_all(wal_root_); }

  bool open() const { return !mdps_.empty(); }
  MdvSystem& system() { return *system_; }
  Network& network() { return system_->network(); }
  const std::vector<MetadataProvider*>& mdps() const { return mdps_; }
  const std::vector<LocalMetadataRepository*>& lmrs() const { return lmrs_; }
  std::map<uint64_t, Subscription>& subscriptions() { return subs_; }
  double mdp_open_ms() const { return mdp_open_ms_; }
  const std::vector<double>& lmr_open_ms() const { return lmr_open_ms_; }

  /// Network counters of every instance so far, the live one included.
  NetTotals net_totals() const {
    NetTotals totals = net_totals_;
    if (system_ != nullptr) totals.Add(system_->network());
    return totals;
  }

 private:
  wal::WalOptions WalOptions(const std::string& component) const {
    wal::WalOptions options;
    options.dir = wal_root_ + "/" + component;
    options.fsync = wal::FsyncPolicy::kBatch;
    options.checkpoint_every = 256;
    return options;
  }

  const WorkloadSpec& spec_;
  std::string wal_root_;
  std::unique_ptr<MdvSystem> system_;
  std::vector<MetadataProvider*> mdps_;
  std::vector<LocalMetadataRepository*> lmrs_;
  std::map<uint64_t, Subscription> subs_;  // By generator slot.
  NetTotals net_totals_;
  uint64_t opens_ = 0;
  double mdp_open_ms_ = 0;
  std::vector<double> lmr_open_ms_;
};

/// Loads the set-up documents and rule base and waits until every LMR
/// holds its initial matches.
Status SetUp(const Generator& gen, Deployment* dep) {
  MDV_RETURN_IF_ERROR(dep->Open());
  const std::vector<DocSpec>& docs = gen.setup_docs();
  constexpr size_t kBatch = 100;
  for (size_t i = 0; i < docs.size(); i += kBatch) {
    std::vector<rdf::RdfDocument> batch;
    for (size_t j = i; j < std::min(docs.size(), i + kBatch); ++j) {
      batch.push_back(docs[j].ToDocument());
    }
    MDV_RETURN_IF_ERROR(
        dep->mdps()[0]->RegisterDocumentBatch(std::move(batch)));
  }
  for (const RuleSpec& rule : gen.setup_rules()) {
    MDV_ASSIGN_OR_RETURN(pubsub::SubscriptionId id,
                         dep->lmrs()[rule.lmr]->Subscribe(rule.text));
    dep->subscriptions()[rule.slot] = Subscription{rule.lmr, id, rule.text};
  }
  if (!dep->network().WaitQuiescent(kQuiesceTimeoutUs)) {
    return Status::Internal("set-up did not quiesce");
  }
  return Status::OK();
}

// ---- Correctness oracle. -----------------------------------------------

/// The resource maps of an MDP's documents, one per document.
std::vector<rules::ResourceMap> DocumentResources(const MetadataProvider& mdp) {
  std::vector<rules::ResourceMap> out;
  const DocumentStore& store = mdp.documents();
  for (const std::string& uri : store.DocumentUris()) {
    const rdf::RdfDocument* doc = store.Find(uri);
    rules::ResourceMap& resources = out.emplace_back();
    for (const rdf::Resource* res : doc->resources()) {
      resources[doc->UriReferenceOf(res->local_id())] = res;
    }
  }
  return out;
}

/// What the rules::evaluator oracle selects for `text`. Generated
/// documents only reference resources of their own document, so
/// evaluating document by document selects exactly what one evaluation
/// over all documents would, without the evaluator's nested-loop join
/// across every pair of documents.
Result<std::vector<std::string>> Oracle(
    const std::string& text, const rdf::RdfSchema& schema,
    const std::vector<rules::ResourceMap>& documents) {
  MDV_ASSIGN_OR_RETURN(rules::CompiledRule compiled,
                       rules::CompileRule(text, schema));
  std::vector<std::string> out;
  for (const rules::ResourceMap& resources : documents) {
    MDV_ASSIGN_OR_RETURN(std::vector<std::string> matches,
                         rules::EvaluateRule(compiled.normalized, resources));
    out.insert(out.end(), matches.begin(), matches.end());
  }
  return out;
}

/// The MDPs hold identical documents; every LMR's subscribed entries
/// equal what the rules::evaluator oracle selects from them; every cache
/// passes AuditCacheInvariants. Returns the first mismatch, or "".
std::string CheckConsistency(Deployment* dep) {
  if (!dep->open()) return "the deployment did not reopen";
  if (!dep->network().WaitQuiescent(kQuiesceTimeoutUs)) {
    return "network did not quiesce before the check";
  }
  const auto& mdps = dep->mdps();
  const DocumentStore& first = mdps[0]->documents();
  for (size_t m = 1; m < mdps.size(); ++m) {
    const DocumentStore& other = mdps[m]->documents();
    if (other.DocumentUris() != first.DocumentUris()) {
      return "MDP " + std::to_string(m) + " holds other document URIs";
    }
    for (const std::string& uri : first.DocumentUris()) {
      if (rdf::WriteRdfXml(*first.Find(uri)) !=
          rdf::WriteRdfXml(*other.Find(uri))) {
        return "MDP " + std::to_string(m) + " differs on " + uri;
      }
    }
  }
  // The MDPs hold identical documents, so one oracle serves every LMR.
  const std::vector<rules::ResourceMap> resources =
      DocumentResources(*mdps[0]);
  std::map<std::string, std::vector<std::string>> oracle;  // By rule text.
  const auto& lmrs = dep->lmrs();
  for (size_t l = 0; l < lmrs.size(); ++l) {
    const LocalMetadataRepository* lmr = lmrs[l];
    Status audit = lmr->AuditCacheInvariants();
    if (!audit.ok()) {
      return "LMR " + std::to_string(l) + " audit: " + audit.ToString();
    }
    std::map<pubsub::SubscriptionId, std::set<std::string>> cached;
    for (const std::string& uri : lmr->CachedUris()) {
      const CacheEntry* entry = lmr->Find(uri);
      for (pubsub::SubscriptionId id : entry->matched_subscriptions) {
        cached[id].insert(uri);
      }
    }
    for (const auto& [slot, sub] : dep->subscriptions()) {
      if (sub.lmr != static_cast<int>(l)) continue;
      auto it = oracle.find(sub.text);
      if (it == oracle.end()) {
        Result<std::vector<std::string>> expected =
            Oracle(sub.text, dep->system().schema(), resources);
        if (!expected.ok()) return "oracle: " + expected.status().ToString();
        it = oracle.emplace(sub.text, *expected).first;
      }
      const std::set<std::string> want(it->second.begin(), it->second.end());
      auto got = cached.find(sub.id);
      const std::set<std::string> have =
          got == cached.end() ? std::set<std::string>{} : got->second;
      if (want != have) {
        return "LMR " + std::to_string(l) + " subscription " +
               std::to_string(sub.id) + " caches " +
               std::to_string(have.size()) + " matches, oracle selects " +
               std::to_string(want.size()) + " (" + sub.text + ")";
      }
      if (got != cached.end()) cached.erase(got);
    }
    if (!cached.empty()) {
      return "LMR " + std::to_string(l) + " caches matches of unknown "
             "subscription " + std::to_string(cached.begin()->first);
    }
  }
  return "";
}

// ---- The timed phase. --------------------------------------------------

/// Samples of one run, in microseconds unless named otherwise.
struct Samples {
  std::vector<double> publish_settled, publish_call, settle_wait;
  std::vector<double> query;
  std::vector<double> subscribe_settled, subscribe_call, unsubscribe;
  /// Per restart: MDP reopen and replay (recover_ms), crash to caught up.
  std::vector<double> mdp_open_ms, caught_up_ms;
  std::vector<double> lmr_open_ms, join_ms, join_bytes;
  std::vector<double> compile, lint;
  /// Traced run: op latency by kind, split by whether tracing was on.
  std::map<OpKind, std::vector<double>> traced_by_kind, untraced_by_kind;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mutations = 0, traced_mutations = 0;
  int64_t subscribes = 0, traced_subscribes = 0;
  int64_t restarts = 0, traced_restarts = 0;
};

class Runner {
 public:
  Runner(Deployment* dep, Samples* samples) : dep_(dep), s_(samples) {}

  /// Runs one operation closed-loop (the call, then WaitQuiescent where
  /// the operation changes LMR state).
  void Execute(const Op& op, bool traced) {
    if (traced && op.kind == OpKind::kSubscribe) FrontEnd(op.text);
    ++s_->attempted;
    const int64_t t0 = obs::NowNs();
    std::optional<obs::ScopedSpan> span;
    if (traced) span.emplace(std::string("bench.") + OpKindName(op.kind));
    bool ok = true;
    switch (op.kind) {
      case OpKind::kRegister:
      case OpKind::kUpdate:
      case OpKind::kDelete:
        ok = Mutate(op, t0, traced);
        break;
      case OpKind::kQuery: {
        Result<std::vector<QueryMatch>> result =
            dep_->lmrs()[op.lmr]->Query(op.text);
        ok = result.ok();
        s_->query.push_back(UsSince(t0));
        break;
      }
      case OpKind::kSubscribe:
        ok = Subscribe(op, t0, traced);
        break;
      case OpKind::kUnsubscribe: {
        auto it = dep_->subscriptions().find(op.slot);
        ok = it != dep_->subscriptions().end() &&
             dep_->lmrs()[op.lmr]->Unsubscribe(it->second.id).ok();
        if (it != dep_->subscriptions().end()) dep_->subscriptions().erase(it);
        ok = Settle(traced) && ok;
        s_->unsubscribe.push_back(UsSince(t0));
        break;
      }
      case OpKind::kRestart:
        ok = Restart(traced);
        break;
    }
    span.reset();
    const double us = UsSince(t0);
    (traced ? s_->traced_by_kind : s_->untraced_by_kind)[op.kind].push_back(us);
    if (!ok) ++s_->failed;
  }

 private:
  bool Settle(bool traced) {
    std::optional<obs::ScopedSpan> span;
    if (traced) span.emplace("bench.settle_wait");
    return dep_->network().WaitQuiescent(kQuiesceTimeoutUs);
  }

  bool Mutate(const Op& op, int64_t t0, bool traced) {
    MetadataProvider* mdp = dep_->mdps()[op.mdp];
    const Status status = [&] {
      std::optional<obs::ScopedSpan> span;
      if (traced) span.emplace("bench.publish_call");
      if (op.kind == OpKind::kRegister) {
        return mdp->RegisterDocument(op.doc.ToDocument());
      }
      if (op.kind == OpKind::kUpdate) {
        return mdp->UpdateDocument(op.doc.ToDocument());
      }
      DocSpec target;
      target.id = op.doc_id;
      return mdp->DeleteDocument(target.Uri());
    }();
    const int64_t t1 = obs::NowNs();
    const bool settled = Settle(traced);
    s_->publish_call.push_back(static_cast<double>(t1 - t0) / 1000.0);
    s_->settle_wait.push_back(UsSince(t1));
    s_->publish_settled.push_back(UsSince(t0));
    ++s_->mutations;
    if (traced) ++s_->traced_mutations;
    return status.ok() && settled;
  }

  bool Subscribe(const Op& op, int64_t t0, bool traced) {
    Result<pubsub::SubscriptionId> id = [&] {
      std::optional<obs::ScopedSpan> span;
      if (traced) span.emplace("bench.subscribe_call");
      return dep_->lmrs()[op.lmr]->Subscribe(op.text);
    }();
    const int64_t t1 = obs::NowNs();
    const bool settled = Settle(traced);
    s_->subscribe_call.push_back(static_cast<double>(t1 - t0) / 1000.0);
    s_->subscribe_settled.push_back(UsSince(t0));
    ++s_->subscribes;
    if (traced) ++s_->traced_subscribes;
    if (!id.ok()) return false;
    dep_->subscriptions()[op.slot] = Subscription{op.lmr, *id, op.text};
    return settled;
  }

  /// The rule front end and single-rule lint of a rule text, timed on
  /// their own through the public rules API: no spans inside src/ cover
  /// them yet. Runs before the subscribe it belongs to, outside its
  /// timing and in a trace of its own.
  void FrontEnd(const std::string& text) {
    const rdf::RdfSchema& schema = dep_->system().schema();
    obs::ScopedSpan span("bench.rules_front_end");
    const int64_t c0 = obs::NowNs();
    Result<rules::CompiledRule> compiled = rules::CompileRule(text, schema);
    s_->compile.push_back(UsSince(c0));
    if (!compiled.ok()) return;
    const int64_t l0 = obs::NowNs();
    rules::LintRule(compiled->analyzed, schema);
    s_->lint.push_back(UsSince(l0));
  }

  bool Restart(bool traced) {
    const int64_t t0 = obs::NowNs();
    dep_->Crash();
    Status opened = dep_->Open();
    if (!opened.ok()) {
      std::fprintf(stderr, "reopen failed: %s\n", opened.ToString().c_str());
      return false;
    }
    s_->mdp_open_ms.push_back(dep_->mdp_open_ms());
    for (double ms : dep_->lmr_open_ms()) s_->lmr_open_ms.push_back(ms);
    const int64_t bytes0 = dep_->network().transport_stats().bytes_sent;
    bool ok = true;
    for (LocalMetadataRepository* lmr : dep_->lmrs()) {
      const int64_t j0 = obs::NowNs();
      std::optional<obs::ScopedSpan> span;
      if (traced) span.emplace("bench.join_replica");
      JoinOptions options;
      options.delta = true;
      ok = lmr->JoinReplica(options).ok() && ok;
      s_->join_ms.push_back(UsSince(j0) / 1000.0);
    }
    ok = Settle(traced) && ok;
    s_->join_bytes.push_back(static_cast<double>(
        dep_->network().transport_stats().bytes_sent - bytes0));
    s_->caught_up_ms.push_back(UsSince(t0) / 1000.0);
    ++s_->restarts;
    if (traced) ++s_->traced_restarts;
    return ok;
  }

  Deployment* dep_;
  Samples* s_;
};

// ---- Reporting. --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }

  /// A percentile is reported only if at least 10 samples lie beyond it.
  void AddPercentile(const std::string& name, const std::vector<double>& v,
                     double p, const std::string& unit) {
    const double beyond = static_cast<double>(v.size()) * (100.0 - p) / 100.0;
    if (p > 50 && beyond < 10) {
      std::printf("# %s not reported: %zu samples leave %.1f beyond p%.0f\n",
                  name.c_str(), v.size(), beyond, p);
      return;
    }
    Add(name, Percentile(v, p), unit);
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// The traces each kind of operation roots.
const std::vector<std::string> kMutationRoots = {
    "bench.register", "bench.update", "bench.delete"};
const std::vector<std::string> kSubscribeRoots = {"bench.subscribe"};
/// A restart's own trace, plus the snapshot serves its joins trigger
/// (the serve runs on a transport thread and starts its own trace).
const std::vector<std::string> kRestartRoots = {"bench.restart",
                                                "mdp.serve_snapshot"};

double SelfUsPer(const TraceBook& book, const std::string& span,
                 const std::vector<std::string>& roots, int64_t per) {
  return Ratio(static_cast<double>(book.Find(span, roots).self_ns) / 1000.0,
               static_cast<double>(per));
}

/// Traced-minus-untraced gap of the mean op latency, weighted by how
/// often each op kind ran.
double TraceOverheadPct(const Samples& s) {
  double traced = 0, untraced = 0;
  for (const auto& [kind, on] : s.traced_by_kind) {
    auto off = s.untraced_by_kind.find(kind);
    if (off == s.untraced_by_kind.end() || on.empty() || off->second.empty()) {
      continue;
    }
    const double n = static_cast<double>(on.size() + off->second.size());
    double mean_on = 0, mean_off = 0;
    for (double v : on) mean_on += v;
    for (double v : off->second) mean_off += v;
    traced += n * mean_on / static_cast<double>(on.size());
    untraced += n * mean_off / static_cast<double>(off->second.size());
  }
  return untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0;
}

void AddEndToEnd(const Samples& s, double setup_s, double wall_s,
                 int64_t ops, Report* r) {
  r->Add("setup_s", setup_s, "s");
  r->AddPercentile("publish_settled_p50_us", s.publish_settled, 50, "us");
  r->AddPercentile("publish_settled_p99_us", s.publish_settled, 99, "us");
  if (!s.query.empty()) {
    r->AddPercentile("lmr_query_p50_us", s.query, 50, "us");
    r->AddPercentile("lmr_query_p99_us", s.query, 99, "us");
  }
  if (!s.subscribe_settled.empty()) {
    r->AddPercentile("subscribe_settled_p50_us", s.subscribe_settled, 50, "us");
    r->AddPercentile("subscribe_settled_p99_us", s.subscribe_settled, 99, "us");
    r->AddPercentile("unsubscribe_p50_us", s.unsubscribe, 50, "us");
  }
  if (!s.mdp_open_ms.empty()) {
    r->Add("recover_ms", Median(s.mdp_open_ms), "ms");
    r->Add("caught_up_ms", Median(s.caught_up_ms), "ms");
  }
  r->Add("ops_per_s", Ratio(static_cast<double>(ops), wall_s), "1/s");
  r->Add("op_failure_ratio",
         Ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)),
         "ratio");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const Samples& s, const TraceBook& book,
                 const MetricsDelta& d, const NetTotals& net, Report* r) {
  const int64_t mut = s.traced_mutations;
  const int64_t sub = s.traced_subscribes;
  const double all_mut = static_cast<double>(s.mutations);
  // mdv: the public entry points, timed by the benchmark. The first
  // ones are the end-to-end latencies of the paths only some workloads
  // take (0 where a workload does not take the path).
  r->Add("mdv.lmr_query_p50_us", Median(s.query), "us");
  r->Add("mdv.subscribe_settled_p50_us", Median(s.subscribe_settled), "us");
  r->Add("mdv.unsubscribe_p50_us", Median(s.unsubscribe), "us");
  r->Add("mdv.caught_up_ms", Median(s.caught_up_ms), "ms");
  r->Add("mdv.op_failure_ratio",
         Ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)),
         "ratio");
  r->Add("mdv.publish_call_p50_us", Median(s.publish_call), "us");
  r->Add("mdv.settle_wait_p50_us", Median(s.settle_wait), "us");
  r->Add("mdv.subscribe_call_p50_us", Median(s.subscribe_call), "us");
  r->Add("mdv.mdp_subscribe_self_us",
         SelfUsPer(book, "mdp.subscribe", kSubscribeRoots, sub), "us");
  r->Add("mdv.mdp_open_ms", Median(s.mdp_open_ms), "ms");
  r->Add("mdv.lmr_open_ms", Median(s.lmr_open_ms), "ms");
  r->Add("mdv.join_replica_ms", Median(s.join_ms), "ms");
  // rules: the front end, through the public rules API.
  r->Add("rules.compile_us", Median(s.compile), "us");
  r->Add("rules.lint_us", Median(s.lint), "us");
  r->Add("rules.lint_warnings_per_subscribe",
         Ratio(static_cast<double>(d.Counter("mdv.lint.warnings_total")),
               static_cast<double>(s.subscribes)),
         "count");
  // filter.
  r->Add("filter.run_us_per_mutation",
         Ratio(static_cast<double>(
                   book.Find("filter.run", kMutationRoots).total_ns) /
                   1000.0,
               static_cast<double>(mut)),
         "us");
  for (const char* span : {"initial_iteration", "materialize", "delta_join",
                           "index_probe", "shard_run"}) {
    r->Add(std::string("filter.") + span + "_self_us",
           SelfUsPer(book, std::string("filter.") + span, kMutationRoots, mut),
           "us");
  }
  r->Add("filter.evaluate_new_rules_self_us",
         SelfUsPer(book, "filter.evaluate_new_rules", kSubscribeRoots, sub) +
             SelfUsPer(book, "filter.new_rules_group", kSubscribeRoots, sub),
         "us");
  const double runs = static_cast<double>(d.Counter("mdv.filter.runs_total"));
  r->Add("filter.triggering_matches_per_run",
         Ratio(static_cast<double>(
                   d.Counter("mdv.filter.triggering_matches_total")),
               runs),
         "count");
  r->Add("filter.join_matches_per_member",
         Ratio(static_cast<double>(d.Counter("mdv.filter.join_matches_total")),
               static_cast<double>(
                   d.Counter("mdv.filter.members_evaluated_total"))),
         "ratio");
  const double workers = kWorkers;
  r->Add("filter.pool_utilization_pct",
         100.0 * Ratio(static_cast<double>(
                           d.Counter("mdv.filter.pool.busy_us_total")),
                       workers * static_cast<double>(d.Counter(
                                     "mdv.filter.pool.wall_us_total"))),
         "%");
  r->Add("filter.pool_steals_per_run",
         Ratio(static_cast<double>(d.Counter("mdv.filter.pool.steals_total")),
               runs),
         "count");
  // rdbms.
  r->Add("rdbms.rows_examined_per_mutation",
         Ratio(static_cast<double>(
                   d.CounterSum("mdv.rdbms.table.", ".rows_examined_total")),
               all_mut),
         "count");
  r->Add("rdbms.materialized_rows_examined_per_mutation",
         Ratio(static_cast<double>(
                   d.CounterSum("mdv.rdbms.table.MaterializedResults",
                                ".rows_examined_total")),
               all_mut),
         "count");
  r->Add("rdbms.full_scans_per_mutation",
         Ratio(static_cast<double>(
                   d.CounterSum("mdv.rdbms.table.", ".full_scans_total")),
               all_mut),
         "count");
  r->Add("rdbms.rows_inserted_per_mutation",
         Ratio(static_cast<double>(
                   d.CounterSum("mdv.rdbms.table.", ".rows_inserted_total")),
               all_mut),
         "count");
  r->Add("rdbms.lookup_p50_us",
         d.HistogramPercentile("mdv.rdbms.lookup_us", 50), "us");
  // pubsub.
  r->Add("pubsub.publish_self_us",
         SelfUsPer(book, "publish.new_matches", kMutationRoots, mut) +
             SelfUsPer(book, "publish.update_outcome", kMutationRoots, mut),
         "us");
  r->Add("pubsub.notifications_per_mutation",
         Ratio(static_cast<double>(
                   d.Counter("mdv.publish.notifications_total")),
               all_mut),
         "count");
  r->Add("pubsub.resources_shipped_per_mutation",
         Ratio(static_cast<double>(
                   d.Counter("mdv.publish.resources_shipped_total")),
               all_mut),
         "count");
  // net.
  const double published = static_cast<double>(net.link.published);
  r->Add("net.frames_per_notification",
         Ratio(static_cast<double>(net.transport.sent), published), "count");
  r->Add("net.redelivered_per_notification",
         Ratio(static_cast<double>(net.link.redelivered), published), "count");
  r->Add("net.spurious_redelivery_ratio",
         Ratio(static_cast<double>(net.link.dedup_suppressed),
               static_cast<double>(net.link.redelivered)),
         "ratio");
  r->Add("slo.holdback_p90_us",
         book.aggregator().StageSnapshot("holdback").Percentile(90), "us");
  r->Add("net.bytes_per_mutation",
         Ratio(static_cast<double>(net.transport.bytes_sent), all_mut), "B");
  r->Add("net.deliver_self_us",
         SelfUsPer(book, "net.deliver", kMutationRoots, mut), "us");
  r->Add("net.ack_self_us", SelfUsPer(book, "net.ack", kMutationRoots, mut),
         "us");
  r->Add("net.join_bytes", Median(s.join_bytes), "B");
  r->Add("net.dead_lettered", static_cast<double>(net.link.dead_lettered),
         "count");
  // lmr.
  r->Add("lmr.apply_self_us",
         SelfUsPer(book, "lmr.apply_notification", kMutationRoots, mut), "us");
  r->Add("lmr.finalize_join_self_us",
         SelfUsPer(book, "lmr.finalize_join", kRestartRoots,
                   s.traced_restarts),
         "us");
  // wal.
  r->Add("wal.appends_per_mutation",
         Ratio(static_cast<double>(d.Counter("mdv.wal.appends_total")),
               all_mut),
         "count");
  r->Add("wal.bytes_per_mutation",
         Ratio(static_cast<double>(d.Counter("mdv.wal.bytes_total")), all_mut),
         "B");
  r->Add("wal.fsyncs_per_mutation",
         Ratio(static_cast<double>(d.Counter("mdv.wal.fsyncs_total")), all_mut),
         "count");
  const double restarts = static_cast<double>(s.restarts);
  r->Add("wal.checkpoints_per_cycle",
         Ratio(static_cast<double>(d.Counter("mdv.wal.checkpoints_total")),
               restarts),
         "count");
  const double replayed =
      static_cast<double>(d.Counter("mdv.wal.replayed_records_total"));
  r->Add("wal.replayed_records_per_restart", Ratio(replayed, restarts),
         "count");
  double open_s = 0;
  for (double ms : s.mdp_open_ms) open_s += ms / 1000.0;
  for (double ms : s.lmr_open_ms) open_s += ms / 1000.0;
  r->Add("wal.replay_records_per_s", Ratio(replayed, open_s), "1/s");
  // obs.
  r->Add("obs.trace_overhead_pct", TraceOverheadPct(s), "%");
  r->Add("obs.dropped_spans", static_cast<double>(book.dropped_spans()),
         "count");
}

// ---- Main. -------------------------------------------------------------

int Run(const Args& args) {
  std::optional<WorkloadSpec> maybe_spec = SpecFor(args.workload);
  if (!maybe_spec) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec spec = *maybe_spec;
  obs::DefaultTracer().set_enabled(false);
  // Lint warnings are still formatted, but counted instead of written.
  SetLogSink([](LogLevel, const std::string&) { ++g_log_lines; });

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double parallelism = EffectiveParallelism(nproc);
  // Everything after this runs on one CPU. How many CPUs this host
  // really grants drifts between about 1 and 4 within minutes, and a run
  // that got 4 measured its latencies ~1.6x lower than one that got 1;
  // on one CPU the figures no longer depend on that drift.
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "cannot pin the process to one CPU\n");
    return 1;
  }
  std::printf(
      "host {\"nproc\": %u, \"effective_parallelism\": %.2f, "
      "\"pinned_cpu\": %d, \"git_sha\": \"%s\", \"source_digest\": "
      "\"%s\", \"build_type\": \"%s\"}\n",
      nproc, parallelism, cpu, args.git_sha.c_str(),
      args.source_digest.c_str(), MDV_PERFBENCH_BUILD_TYPE);
  std::printf("# workload %s seed %" PRIu64 " seconds %.0f trace %d\n",
              spec.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);

  // Generator self-check: equal seeds give byte-identical inputs, a
  // different seed does not.
  {
    const std::string a = Generator::Transcript(spec.shape, args.seed, 2000);
    const std::string b = Generator::Transcript(spec.shape, args.seed, 2000);
    const std::string c =
        Generator::Transcript(spec.shape, args.seed + 1, 2000);
    if (a != b || a == c) {
      std::fprintf(stderr, "generator self-check failed\n");
      return 1;
    }
    std::printf("# generator self-check ok (%zu transcript bytes)\n",
                a.size());
  }

  const std::string wal_root =
      args.work_dir + "/" + spec.name + "-" + std::to_string(args.seed);
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Generator> gen;
  for (int i = 0; i < spec.setups; ++i) {
    dep.reset();
    gen = std::make_unique<Generator>(spec.shape, args.seed);
    dep = std::make_unique<Deployment>(spec, wal_root);
    dep->RemoveWal();
    const int64_t t0 = obs::NowNs();
    Status status = SetUp(*gen, dep.get());
    setup_s.push_back(UsSince(t0) / 1e6);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("# set-up %d: %.3f s\n", i + 1, setup_s.back());
    std::fflush(stdout);
  }
  std::string error = CheckConsistency(dep.get());
  if (!error.empty()) {
    std::fprintf(stderr, "set-up inconsistent: %s\n", error.c_str());
  }

  // Timed phase: closed loop until the time is up; checks run with the
  // clock stopped.
  Samples samples;
  Runner runner(dep.get(), &samples);
  std::optional<TraceBook> book;
  if (args.trace) book.emplace(size_t{1} << 19);
  const obs::MetricsSnapshot before = obs::DefaultMetrics().Snapshot();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t start_ns = obs::NowNs();
  int64_t paused_ns = 0;  // Checks and trace drains: the clock stops.
  auto elapsed_ns = [&] { return obs::NowNs() - start_ns - paused_ns; };
  // The traced run alternates blocks with the tracer on and off: 16
  // operations, or one restart cycle on durable workloads.
  constexpr size_t kTraceBlockOps = 16;
  size_t block = 0, block_ops = 0;
  int64_t traced_wall_ns = 0;
  int64_t ops = 0;
  // Durable workloads stop on a cycle boundary, so every run weighs its
  // restarts and mutations alike.
  bool cycle_open = false;
  while ((elapsed_ns() < budget_ns || cycle_open) && error.empty()) {
    const bool traced = args.trace && block % 2 == 0;
    const int64_t op_start_ns = obs::NowNs();
    const Op op = gen->Next();
    obs::DefaultTracer().set_enabled(traced);
    runner.Execute(op, traced);
    obs::DefaultTracer().set_enabled(false);
    if (traced) traced_wall_ns += obs::NowNs() - op_start_ns;
    if (op.kind != OpKind::kRestart) ++ops;
    cycle_open = spec.durable && op.kind != OpKind::kRestart;
    const bool block_end = spec.durable ? op.kind == OpKind::kRestart
                                        : ++block_ops == kTraceBlockOps;
    const int64_t pause_ns = obs::NowNs();
    if (op.kind == OpKind::kRestart) {
      error = CheckConsistency(dep.get());
      // Each restart starts new threads, and each may take a fresh malloc
      // arena; hand freed pages back so peak_rss_mb follows live memory
      // rather than how many arenas the restarts happened to touch.
      malloc_trim(0);
    }
    if (book && block_end) book->Drain();
    paused_ns += obs::NowNs() - pause_ns;
    if (block_end) {
      ++block;
      block_ops = 0;
    }
  }
  const int64_t wall_ns = elapsed_ns();
  if (error.empty()) error = CheckConsistency(dep.get());
  if (book) book->Drain();
  const obs::MetricsSnapshot after = obs::DefaultMetrics().Snapshot();
  const NetTotals net = dep->net_totals();
  dep.reset();
  fs::remove_all(wal_root);

  const double wall_s = static_cast<double>(wall_ns) / 1e9;
  std::printf("# timed phase: %" PRId64 " ops in %.3f s, %" PRId64
              " mutations, %" PRId64 " subscribes, %" PRId64 " restarts\n",
              samples.attempted, wall_s, samples.mutations, samples.subscribes,
              samples.restarts);
  for (const auto& [kind, all] : samples.untraced_by_kind) {
    std::vector<double> v = all;
    auto on = samples.traced_by_kind.find(kind);
    if (on != samples.traced_by_kind.end()) {
      v.insert(v.end(), on->second.begin(), on->second.end());
    }
    std::printf("# op %-11s n=%-5zu p10=%.0f p50=%.0f p90=%.0f us\n",
                OpKindName(kind), v.size(), Percentile(v, 10),
                Percentile(v, 50), Percentile(v, 90));
  }
  Report end_to_end;
  AddEndToEnd(samples, Median(setup_s), wall_s, ops, &end_to_end);
  end_to_end.Print();

  Report per_layer;
  if (book) {
    const MetricsDelta delta(before, after);
    AddPerLayer(samples, *book, delta, net, &per_layer);
    // Wall time of the traced operations, generator included, that the
    // benchmark's own op spans account for.
    double bench_span_ns = 0;
    for (OpKind kind : {OpKind::kRegister, OpKind::kUpdate, OpKind::kDelete,
                        OpKind::kQuery, OpKind::kSubscribe,
                        OpKind::kUnsubscribe, OpKind::kRestart}) {
      const std::string name = std::string("bench.") + OpKindName(kind);
      bench_span_ns += book->Find(name, {name}).total_ns;
    }
    const double coverage =
        100.0 * Ratio(bench_span_ns, static_cast<double>(traced_wall_ns));
    per_layer.Add("obs.bench_span_coverage_pct", coverage, "%");
    per_layer.Print();
    std::printf("per_layer_detail {\"spans\": %s, \"slo\": %s}\n",
                book->TotalsJson().c_str(),
                book->aggregator().SummaryJson().c_str());
    if (coverage < 90.0 && error.empty()) {
      error = "benchmark spans cover only " + std::to_string(coverage) +
              "% of the traced wall time";
    }
    if (book->dropped_spans() != 0 && error.empty()) {
      error = "tracer dropped spans";
    }
  }
  std::printf("# %" PRId64 " log lines\n", g_log_lines.load());
  if (samples.failed != 0) {
    std::printf("# %" PRId64 " of %" PRId64 " operations failed\n",
                samples.failed, samples.attempted);
  }
  if (!error.empty()) std::printf("# CHECK FAILED: %s\n", error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              error.empty() ? "true" : "false", samples.attempted,
              samples.failed,
              (args.trace ? per_layer : end_to_end).Json().c_str());
  return 0;
}

}  // namespace
}  // namespace mdv::perfbench

int main(int argc, char** argv) {
  mdv::perfbench::Args args;
  if (!mdv::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mdv_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  return mdv::perfbench::Run(args);
}
