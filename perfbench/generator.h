// Seeded input generator of the MDV load benchmark. Everything the
// benchmark feeds the system — documents, rule texts and the timed
// operation stream — comes from here and depends only on the seed, never
// on what the system answered: the generator keeps its own model of the
// live documents and subscriptions, and every operation it emits is
// valid against that model.
#ifndef MDV_PERFBENCH_GENERATOR_H_
#define MDV_PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "rdf/document.h"

namespace mdv::perfbench {

/// SplitMix64: a tiny generator whose output is fixed by the algorithm,
/// unlike the std distributions, whose results vary across library
/// versions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Real() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf-distributed rank in [0, n): rank k with probability ∝ 1/(k+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);  ///< s = 0 gives the uniform law.
  size_t Sample(Rng* rng) const;
  /// The smallest rank whose cumulative probability reaches `u`.
  size_t Quantile(double u) const;

 private:
  std::vector<double> cdf_;
};

/// The fields of one generated document: a CycleProvider host with its
/// ServerInformation (the ObjectGlobe schema of the paper's §4).
struct DocSpec {
  uint64_t id = 0;
  int64_t memory = 0;
  int64_t cpu = 0;
  int64_t site = 0;
  int64_t port = 0;
  int64_t synth = 0;

  std::string Uri() const;
  rdf::RdfDocument ToDocument() const;
  std::string Serialize() const;
};

enum class OpKind {
  kRegister,
  kUpdate,
  kDelete,
  kQuery,
  kSubscribe,
  kUnsubscribe,
  kRestart,
};

const char* OpKindName(OpKind kind);

/// One operation of the timed stream. Fields not used by a kind stay at
/// their defaults.
struct Op {
  OpKind kind = OpKind::kQuery;
  int mdp = 0;  ///< Provider that receives a mutation.
  int lmr = 0;  ///< Repository that subscribes, unsubscribes or queries.
  DocSpec doc;  ///< kRegister / kUpdate payload.
  uint64_t doc_id = 0;   ///< kDelete target.
  uint64_t slot = 0;     ///< kSubscribe: new slot; kUnsubscribe: slot to drop.
  std::string text;      ///< Rule text (kSubscribe) or query text (kQuery).
  bool duplicate = false;  ///< kSubscribe: text repeats a live rule.

  std::string Serialize() const;
};

/// One subscription of the set-up rule base.
struct RuleSpec {
  uint64_t slot = 0;
  int lmr = 0;
  std::string text;
};

/// Shape of one workload's inputs.
struct WorkloadShape {
  int mdps = 2;
  int lmrs = 4;
  size_t setup_rules = 500;
  size_t setup_docs = 1000;
  /// Timed-stream mix, in parts per hundred.
  int register_pct = 0;
  int update_pct = 0;
  int delete_pct = 0;
  int query_pct = 0;
  /// Every `subscribe_every`-th step subscribes a new rule and drops the
  /// oldest live one (two operations).
  int subscribe_every = 25;
  /// subscribe_churn: every step subscribes a fresh rule and drops the
  /// oldest; one mutation runs every `mutation_every` steps.
  bool churn = false;
  int mutation_every = 20;
  /// Share of churned rule texts that repeat a live one, in percent.
  int duplicate_pct = 0;
  /// durable_restart: every `cycle_steps`-th step is a restart.
  int cycle_steps = 0;
};

/// Draws the inputs of one workload from a seed.
class Generator {
 public:
  Generator(const WorkloadShape& shape, uint64_t seed);

  const std::vector<DocSpec>& setup_docs() const { return setup_docs_; }
  const std::vector<RuleSpec>& setup_rules() const { return setup_rules_; }

  /// The next operation of the timed stream (unbounded).
  Op Next();

  /// Digest of the set-up inputs plus the first `ops` timed operations,
  /// as one byte string: equal seeds must give equal strings.
  static std::string Transcript(const WorkloadShape& shape, uint64_t seed,
                                size_t ops);

 private:
  /// Constants of one rule: shape 0 PATH, 1 COMP, 2 JOIN (§4).
  struct RuleParams {
    int shape = 0;
    size_t memory_rank = 0;
    size_t threshold_rank = 0;
    size_t site = 0;
    size_t cpu = 0;
  };

  template <typename T>
  void Shuffle(std::vector<T>* v);
  /// `n` ranks whose histogram follows `law` as closely as `n` samples
  /// can, in random order.
  std::vector<size_t> Stratified(const Zipf& law, size_t n);
  DocSpec NewDoc();
  static std::string RuleText(const RuleParams& params);
  std::string RandomRuleText();
  std::string QueryText();
  std::string FreshRuleText();
  OpKind DrawKind(bool allow_query);
  Op SubscribeStep();
  Op DeleteOp();
  Op NextMutation(bool allow_query);

  WorkloadShape shape_;
  Rng rng_;
  Zipf memory_zipf_;
  Zipf site_zipf_;
  Zipf threshold_zipf_;
  Zipf cpu_uniform_;
  Zipf synth_uniform_;
  std::vector<DocSpec> setup_docs_;
  std::vector<RuleSpec> setup_rules_;
  /// Live documents by position (swap-remove on delete).
  std::vector<uint64_t> live_docs_;
  uint64_t next_doc_id_ = 0;
  /// Live subscriptions, oldest first.
  std::deque<RuleSpec> live_rules_;
  /// Live rule text -> count (churn only, to keep texts distinct).
  std::map<std::string, int> live_texts_;
  uint64_t next_slot_ = 0;
  uint64_t steps_ = 0;
  uint64_t queries_ = 0;
  std::vector<OpKind> deck_;           ///< Mutations and queries.
  std::vector<OpKind> mutation_deck_;  ///< Mutations only.
  /// Operations already decided but not yet handed out.
  std::deque<Op> pending_;
};

}  // namespace mdv::perfbench

#endif  // MDV_PERFBENCH_GENERATOR_H_
