#include "generator.h"

#include <algorithm>
#include <cmath>

namespace mdv::perfbench {

namespace {

constexpr int64_t kCpus[] = {300, 450, 600, 750, 900};
constexpr size_t kMemoryValues = 4096;
constexpr size_t kSites = 16;
constexpr size_t kThresholds = 1000;

std::string SiteName(int64_t site) {
  return ".site" + std::to_string(site) + ".edu";
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) {
  double sum = 0;
  for (size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(sum);
  }
  for (double& v : cdf_) v /= sum;
}

size_t Zipf::Sample(Rng* rng) const { return Quantile(rng->Real()); }

size_t Zipf::Quantile(double u) const {
  const size_t k = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

std::string DocSpec::Uri() const {
  return "pb/doc" + std::to_string(id) + ".rdf";
}

rdf::RdfDocument DocSpec::ToDocument() const {
  const std::string uri = Uri();
  rdf::RdfDocument doc(uri);
  rdf::Resource info("info", "ServerInformation");
  info.AddProperty("memory",
                   rdf::PropertyValue::Literal(std::to_string(memory)));
  info.AddProperty("cpu", rdf::PropertyValue::Literal(std::to_string(cpu)));
  rdf::Resource host("host", "CycleProvider");
  host.AddProperty("serverHost",
                   rdf::PropertyValue::Literal("h" + std::to_string(id) +
                                               SiteName(site)));
  host.AddProperty("serverPort",
                   rdf::PropertyValue::Literal(std::to_string(port)));
  host.AddProperty("synthValue",
                   rdf::PropertyValue::Literal(std::to_string(synth)));
  host.AddProperty("serverInformation",
                   rdf::PropertyValue::ResourceRef(uri + "#info"));
  // Fresh local ids in a fresh document: AddResource cannot fail.
  (void)doc.AddResource(std::move(info));
  (void)doc.AddResource(std::move(host));
  return doc;
}

std::string DocSpec::Serialize() const {
  return "doc " + std::to_string(id) + " " + std::to_string(memory) + " " +
         std::to_string(cpu) + " " + std::to_string(site) + " " +
         std::to_string(port) + " " + std::to_string(synth);
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kRegister:
      return "register";
    case OpKind::kUpdate:
      return "update";
    case OpKind::kDelete:
      return "delete";
    case OpKind::kQuery:
      return "query";
    case OpKind::kSubscribe:
      return "subscribe";
    case OpKind::kUnsubscribe:
      return "unsubscribe";
    case OpKind::kRestart:
      return "restart";
  }
  return "?";
}

std::string Op::Serialize() const {
  std::string out = OpKindName(kind);
  out += " mdp=" + std::to_string(mdp) + " lmr=" + std::to_string(lmr);
  switch (kind) {
    case OpKind::kRegister:
    case OpKind::kUpdate:
      out += " " + doc.Serialize();
      break;
    case OpKind::kDelete:
      out += " doc_id=" + std::to_string(doc_id);
      break;
    case OpKind::kSubscribe:
      out += " slot=" + std::to_string(slot) + (duplicate ? " dup " : " ") +
             text;
      break;
    case OpKind::kUnsubscribe:
      out += " slot=" + std::to_string(slot);
      break;
    case OpKind::kQuery:
      out += " " + text;
      break;
    case OpKind::kRestart:
      break;
  }
  return out;
}

Generator::Generator(const WorkloadShape& shape, uint64_t seed)
    : shape_(shape),
      rng_(seed),
      memory_zipf_(kMemoryValues, 1.0),
      site_zipf_(kSites, 1.1),
      threshold_zipf_(kThresholds, 1.0),
      cpu_uniform_(std::size(kCpus), 0.0),
      synth_uniform_(kThresholds, 0.0) {
  // The set-up documents and rule base are stratified: their constants
  // follow the Zipf (or uniform) laws as closely as the sample size
  // allows, and only their arrangement is random. Every seed thus loads
  // the same skew, and a seed cannot make the hot predicates hotter.
  const size_t n = shape_.setup_docs;
  const std::vector<size_t> memory = Stratified(memory_zipf_, n);
  const std::vector<size_t> cpu = Stratified(cpu_uniform_, n);
  const std::vector<size_t> site = Stratified(site_zipf_, n);
  const std::vector<size_t> synth = Stratified(synth_uniform_, n);
  for (size_t i = 0; i < n; ++i) {
    DocSpec doc;
    doc.id = next_doc_id_++;
    doc.memory = 16 * static_cast<int64_t>(memory[i] + 1);
    doc.cpu = kCpus[cpu[i]];
    doc.site = static_cast<int64_t>(site[i]);
    doc.port = 1000 + static_cast<int64_t>(rng_.Uniform(9000));
    doc.synth = static_cast<int64_t>(synth[i]);
    setup_docs_.push_back(doc);
    live_docs_.push_back(doc.id);
  }

  std::vector<std::string> texts;
  if (shape_.churn) {
    // The churned rule base keeps its texts distinct, so its duplicate
    // share is exactly the one the churn injects.
    for (size_t i = 0; i < shape_.setup_rules; ++i) {
      texts.push_back(FreshRuleText());
      ++live_texts_[texts.back()];
    }
  } else {
    const size_t per_shape = (shape_.setup_rules + 2) / 3;
    const size_t m = per_shape;
    const std::vector<size_t> path_memory = Stratified(memory_zipf_, m);
    const std::vector<size_t> threshold = Stratified(threshold_zipf_, m);
    const std::vector<size_t> join_memory = Stratified(memory_zipf_, m);
    const std::vector<size_t> join_site = Stratified(site_zipf_, m);
    const std::vector<size_t> join_cpu = Stratified(cpu_uniform_, m);
    for (size_t i = 0; i < shape_.setup_rules; ++i) {
      const size_t k = i / 3;
      texts.push_back(RuleText(
          RuleParams{static_cast<int>(i % 3),
                     i % 3 == 2 ? join_memory[k] : path_memory[k],
                     threshold[k], join_site[k], join_cpu[k]}));
    }
    Shuffle(&texts);
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    RuleSpec rule{next_slot_++, static_cast<int>(i % shape_.lmrs), texts[i]};
    setup_rules_.push_back(rule);
    live_rules_.push_back(rule);
  }
}

template <typename T>
void Generator::Shuffle(std::vector<T>* v) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng_.Uniform(i)]);
  }
}

std::vector<size_t> Generator::Stratified(const Zipf& law, size_t n) {
  std::vector<size_t> ranks;
  for (size_t i = 0; i < n; ++i) {
    ranks.push_back(law.Quantile((static_cast<double>(i) + 0.5) /
                                 static_cast<double>(n)));
  }
  Shuffle(&ranks);
  return ranks;
}

DocSpec Generator::NewDoc() {
  DocSpec doc;
  doc.id = next_doc_id_++;
  doc.memory = 16 * static_cast<int64_t>(memory_zipf_.Sample(&rng_) + 1);
  doc.cpu = kCpus[cpu_uniform_.Sample(&rng_)];
  doc.site = static_cast<int64_t>(site_zipf_.Sample(&rng_));
  doc.port = 1000 + static_cast<int64_t>(rng_.Uniform(9000));
  doc.synth = static_cast<int64_t>(synth_uniform_.Sample(&rng_));
  return doc;
}

std::string Generator::RuleText(const RuleParams& p) {
  // The three §4 rule shapes with Zipf-skewed constants: a few hot
  // predicates are shared by many rules and match many documents.
  const std::string head = "search CycleProvider c register c where ";
  const std::string memory = std::to_string(16 * (p.memory_rank + 1));
  switch (p.shape) {
    case 0:  // PATH
      return head + "c.serverInformation.memory = " + memory;
    case 1: {  // COMP: rank k matches about k/4000 of the documents.
      const size_t threshold = kThresholds - 2 - p.threshold_rank / 4;
      return head + "c.synthValue > " + std::to_string(threshold);
    }
    default:  // JOIN
      return head + "c.serverHost contains '" +
             SiteName(static_cast<int64_t>(p.site)) +
             "' and c.serverInformation.cpu = " + std::to_string(kCpus[p.cpu]) +
             " and c.serverInformation.memory = " + memory;
  }
}

std::string Generator::RandomRuleText() {
  RuleParams p;
  p.shape = static_cast<int>(rng_.Uniform(3));
  p.memory_rank = memory_zipf_.Sample(&rng_);
  p.threshold_rank = threshold_zipf_.Sample(&rng_);
  p.site = site_zipf_.Sample(&rng_);
  p.cpu = cpu_uniform_.Sample(&rng_);
  return RuleText(p);
}

std::string Generator::FreshRuleText() {
  // Redraw until the text differs from every live rule; the constant
  // domains hold far more distinct texts than any rule base here.
  std::string text = RandomRuleText();
  while (live_texts_.count(text) != 0) text = RandomRuleText();
  return text;
}

std::string Generator::QueryText() {
  // A fixed rotation of query shapes, so every seed issues the same
  // share of each: single-class scans, and every fourth query a PATH
  // join across CycleProvider and ServerInformation.
  const std::string memory =
      std::to_string(16 * (memory_zipf_.Sample(&rng_) + 1));
  switch (queries_++ % 4) {
    case 0:
    case 2:
      return "search CycleProvider c register c where c.synthValue > " +
             std::to_string(500 + rng_.Uniform(kThresholds / 2));
    case 1:
      return "search ServerInformation s register s where s.memory = " +
             memory;
    default:
      return "search CycleProvider c register c "
             "where c.serverInformation.memory = " +
             memory;
  }
}

OpKind Generator::DrawKind(bool allow_query) {
  // Kinds are dealt from a shuffled deck holding each kind in its exact
  // share, so every seed runs the same mix and only the order differs.
  std::vector<OpKind>& deck = allow_query ? deck_ : mutation_deck_;
  if (deck.empty()) {
    auto add = [&](OpKind kind, int n) { deck.insert(deck.end(), n, kind); };
    add(OpKind::kRegister, shape_.register_pct);
    add(OpKind::kUpdate, shape_.update_pct);
    add(OpKind::kDelete, shape_.delete_pct);
    if (allow_query) add(OpKind::kQuery, shape_.query_pct);
    Shuffle(&deck);
  }
  const OpKind kind = deck.back();
  deck.pop_back();
  return kind;
}

Op Generator::DeleteOp() {
  Op op;
  op.kind = OpKind::kDelete;
  op.mdp = static_cast<int>(rng_.Uniform(shape_.mdps));
  const size_t at = rng_.Uniform(live_docs_.size());
  op.doc_id = live_docs_[at];
  live_docs_[at] = live_docs_.back();
  live_docs_.pop_back();
  return op;
}

Op Generator::NextMutation(bool allow_query) {
  const OpKind kind = DrawKind(allow_query);
  if (kind == OpKind::kDelete) return DeleteOp();
  Op op;
  op.kind = kind;
  op.mdp = static_cast<int>(rng_.Uniform(shape_.mdps));
  op.lmr = static_cast<int>(rng_.Uniform(shape_.lmrs));
  switch (kind) {
    case OpKind::kRegister:
      op.doc = NewDoc();
      live_docs_.push_back(op.doc.id);
      // Deletes balance registers: one that grows the base past its
      // set-up size is followed by a delete, so the base keeps its size.
      if (live_docs_.size() > shape_.setup_docs) pending_.push_back(DeleteOp());
      break;
    case OpKind::kUpdate: {
      const uint64_t id = live_docs_[rng_.Uniform(live_docs_.size())];
      op.doc = NewDoc();
      --next_doc_id_;  // An update keeps the document's id.
      op.doc.id = id;
      break;
    }
    default:
      op.text = QueryText();
      break;
  }
  return op;
}

Op Generator::SubscribeStep() {
  // Subscribe a new rule at a random LMR, then drop the oldest live
  // rule. The churned rule base keeps its texts distinct except for the
  // duplicate_pct share, which repeats a live rule exactly.
  Op sub;
  sub.kind = OpKind::kSubscribe;
  sub.lmr = static_cast<int>(rng_.Uniform(shape_.lmrs));
  sub.slot = next_slot_++;
  if (shape_.churn) {
    sub.duplicate =
        static_cast<int>(rng_.Uniform(100)) < shape_.duplicate_pct;
    sub.text = sub.duplicate
                   ? live_rules_[rng_.Uniform(live_rules_.size())].text
                   : FreshRuleText();
    ++live_texts_[sub.text];
  } else {
    sub.text = RandomRuleText();
  }
  live_rules_.push_back(RuleSpec{sub.slot, sub.lmr, sub.text});
  const RuleSpec oldest = live_rules_.front();
  live_rules_.pop_front();
  if (shape_.churn && --live_texts_[oldest.text] == 0) {
    live_texts_.erase(oldest.text);
  }
  Op unsub;
  unsub.kind = OpKind::kUnsubscribe;
  unsub.lmr = oldest.lmr;
  unsub.slot = oldest.slot;
  pending_.push_back(std::move(unsub));
  return sub;
}

Op Generator::Next() {
  if (!pending_.empty()) {
    Op op = std::move(pending_.front());
    pending_.pop_front();
    return op;
  }
  ++steps_;
  if (shape_.churn) {
    Op sub = SubscribeStep();
    if (steps_ % static_cast<uint64_t>(shape_.mutation_every) == 0) {
      pending_.push_back(NextMutation(false));
    }
    return sub;
  }
  if (shape_.cycle_steps > 0 &&
      steps_ % static_cast<uint64_t>(shape_.cycle_steps) == 0) {
    Op restart;
    restart.kind = OpKind::kRestart;
    return restart;
  }
  if (steps_ % static_cast<uint64_t>(shape_.subscribe_every) == 0) {
    return SubscribeStep();
  }
  return NextMutation(shape_.query_pct > 0);
}

std::string Generator::Transcript(const WorkloadShape& shape, uint64_t seed,
                                  size_t ops) {
  Generator gen(shape, seed);
  std::string out;
  for (const DocSpec& doc : gen.setup_docs()) out += doc.Serialize() + "\n";
  for (const RuleSpec& rule : gen.setup_rules()) {
    out += "rule " + std::to_string(rule.slot) + " " +
           std::to_string(rule.lmr) + " " + rule.text + "\n";
  }
  for (size_t i = 0; i < ops; ++i) out += gen.Next().Serialize() + "\n";
  return out;
}

}  // namespace mdv::perfbench
