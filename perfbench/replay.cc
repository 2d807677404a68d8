#include "replay.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "algo/fallback.h"
#include "algo/registry.h"
#include "core/bounds.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "data/csv_table.h"
#include "net/frame.h"
#include "service/cache.h"
#include "service/request.h"
#include "util/logging.h"
#include "util/timer.h"

namespace perfbench {

using kanon::AnonymizationResult;
using kanon::RunContext;
using kanon::Table;

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

uint32_t Tracer::Intern(const std::string& name) {
  const auto [it, inserted] =
      ids_.emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    total_ns_.push_back(0);
    count_.push_back(0);
  }
  return it->second;
}

void Tracer::BeginRequest(uint64_t request) {
  request_ = request;
  current_.clear();
  open_.clear();
}

double Tracer::EndRequest() {
  int64_t execute_ns = 0;
  for (const Span& span : current_) {
    const int64_t ns = span.end_ns - span.start_ns;
    total_ns_[span.name] += ns;
    ++count_[span.name];
    if (std::find(execute_path_.begin(), execute_path_.end(), span.name) !=
        execute_path_.end()) {
      execute_ns += ns;
    }
  }
  if (request_ < kKeptRequests) {
    kept_.insert(kept_.end(), current_.begin(), current_.end());
  }
  return static_cast<double>(execute_ns) / 1e6;
}

int32_t Tracer::Begin(uint32_t name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  current_.push_back(span);
  const auto index = static_cast<int32_t>(current_.size() - 1);
  open_.push_back(index);
  return index;
}

int64_t Tracer::End(int32_t index) {
  if (index < 0) return 0;
  Span& span = current_[static_cast<size_t>(index)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - epoch_)
                    .count();
  KANON_CHECK(!open_.empty() && open_.back() == index)
      << "spans must close innermost first";
  open_.pop_back();
  return span.end_ns - span.start_ns;
}

int64_t Tracer::TotalNs(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? 0 : total_ns_[it->second];
}

uint64_t Tracer::Count(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? 0 : count_[it->second];
}

void Tracer::Write(std::ostream& out) const {
  out << "request,index,parent,name,start_ns,end_ns\n";
  uint64_t request = ~uint64_t{0};
  int64_t index = 0;
  for (const Span& span : kept_) {
    if (span.request != request) {
      request = span.request;
      index = 0;
    }
    out << span.request << ',' << index++ << ',' << span.parent << ','
        << names_[span.name] << ',' << span.start_ns << ',' << span.end_ns
        << '\n';
  }
}

namespace {

/// Replays the breaker decisions serving made for one request: a stage
/// the served chain recorded as `skipped:breaker` is skipped again.
/// Breaker state depends on wall-clock cooldowns, so it cannot be
/// recomputed; every other stage outcome is recomputed and compared.
class ScriptedGate : public kanon::StageGate {
 public:
  void Script(const std::string* served_chain) { chain_ = served_chain; }
  bool Allow(const std::string& stage) override {
    return chain_->find(stage + "(skipped:breaker)") == std::string::npos;
  }
  void Record(const std::string&, bool) override {}

 private:
  const std::string* chain_ = nullptr;
};

/// A chain stage wrapped in an `algo.stage.<name>` span.
class TimedStage : public kanon::Anonymizer {
 public:
  TimedStage(std::unique_ptr<kanon::Anonymizer> inner, Tracer* tracer,
             ReplayResult* result, std::vector<std::pair<std::string,
                                                         int64_t>>* log)
      : inner_(std::move(inner)),
        tracer_(tracer),
        span_(tracer->Intern("algo.stage." + inner_->name())),
        result_(result),
        log_(log) {}

  using Anonymizer::Run;
  std::string name() const override { return inner_->name(); }
  AnonymizationResult Run(const Table& table, size_t k,
                          RunContext* ctx) override {
    const int32_t span = tracer_->Begin(span_);
    AnonymizationResult result = inner_->Run(table, k, ctx);
    log_->emplace_back(inner_->name(), tracer_->End(span));
    ++result_->stages_run;
    return result;
  }

 private:
  std::unique_ptr<kanon::Anonymizer> inner_;
  Tracer* const tracer_;
  const uint32_t span_;
  ReplayResult* const result_;
  std::vector<std::pair<std::string, int64_t>>* const log_;
};

/// Stages that fetch the shared distance oracle (core/distance_oracle).
bool UsesOracle(const std::vector<std::string>& stages) {
  for (const std::string& stage : stages) {
    if (stage == "mdav" || stage == "branch_bound" ||
        stage == "greedy_cover") {
      return true;
    }
  }
  return false;
}

/// The worker pool's rule for what the result cache may keep.
bool Cacheable(const AnonymizationResult& result, uint64_t node_budget,
               const RunContext& ctx) {
  return result.completed() ||
         (result.termination == kanon::StopReason::kBudget &&
          node_budget == 0 && ctx.stop_reason() == kanon::StopReason::kNone);
}

std::string ExtractChain(const std::string& notes) {
  constexpr std::string_view kPrefix = "chain=";
  const size_t start = notes.find(kPrefix);
  if (start == std::string::npos) return "";
  const size_t begin = start + kPrefix.size();
  const size_t end = notes.find(' ', begin);
  return notes.substr(begin, end == std::string::npos ? end : end - begin);
}

/// One replay pass: the worker's path for each request, with spans.
class Replayer {
 public:
  Replayer(const Workload& workload, Tracer* tracer)
      : workload_(workload),
        tracer_(tracer),
        traced_(tracer->enabled()),
        s_encode_req_(tracer->Intern("net.encode_request")),
        s_decode_req_(tracer->Intern("net.decode_request")),
        s_parse_(tracer->Intern("data.csv_parse")),
        s_validate_(tracer->Intern("service.validate")),
        s_fingerprint_(tracer->Intern("service.fingerprint")),
        s_lookup_(tracer->Intern("service.cache_lookup")),
        s_oracle_(tracer->Intern("core.distance_build")),
        s_chain_(tracer->Intern("algo.chain")),
        s_suppress_(tracer->Intern("core.suppress")),
        s_render_(tracer->Intern("data.csv_render")),
        s_insert_(tracer->Intern("service.cache_insert")),
        s_finalize_(tracer->Intern("core.finalize")),
        s_diameter_(tracer->Intern("core.diameter_sum")),
        s_valid_(tracer->Intern("core.validate")),
        s_encode_resp_(tracer->Intern("net.encode_response")),
        s_decode_resp_(tracer->Intern("net.decode_response")),
        stages_(workload.Stages()),
        uses_oracle_(UsesOracle(stages_)),
        cache_(kCacheCapacity) {
    for (uint32_t name : {s_fingerprint_, s_lookup_, s_oracle_, s_chain_,
                          s_suppress_, s_render_, s_insert_}) {
      tracer->MarkExecutePath(name);
    }
    chain_options_.stages = stages_;
    chain_options_.gate = &gate_;
    if (traced_) {
      chain_options_.make_stage = [this](const std::string& stage) {
        return std::unique_ptr<kanon::Anonymizer>(
            std::make_unique<TimedStage>(kanon::MakeAnonymizer(stage),
                                         tracer_, &out_, &stage_log_));
      };
    }
  }

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  void One(uint64_t r, const ServedRequest& s);
  ReplayResult& result() { return out_; }

 private:
  const Workload& workload_;
  Tracer* const tracer_;
  const bool traced_;
  const uint32_t s_encode_req_, s_decode_req_, s_parse_, s_validate_,
      s_fingerprint_, s_lookup_, s_oracle_, s_chain_, s_suppress_,
      s_render_, s_insert_, s_finalize_, s_diameter_, s_valid_,
      s_encode_resp_, s_decode_resp_;
  const std::vector<std::string> stages_;
  const bool uses_oracle_;
  kanon::ResultCache cache_;
  ScriptedGate gate_;
  std::vector<std::pair<std::string, int64_t>> stage_log_;
  kanon::FallbackOptions chain_options_;
  std::set<uint32_t> diagnosed_;
  ReplayResult out_;
};

void Replayer::One(uint64_t r, const ServedRequest& s) {
  Tracer* const tracer = tracer_;
  kanon::NetRequest net;
  net.verb = kanon::NetVerb::kAnonymize;
  net.client_seq = r + 1;
  net.request.algorithm = workload_.algorithm;
  net.request.k = workload_.k;
  net.request.node_budget = workload_.node_budget;
  net.request.csv_text = workload_.csv[s.table];
  out_.request_csv_bytes += net.request.csv_text.size();
  std::string frame;
  {
    ScopedSpan span(tracer, s_encode_req_);
    frame = kanon::EncodeNetRequest(net);
  }
  out_.request_frame_bytes += frame.size();
  kanon::StatusOr<kanon::NetRequest> decoded =
      kanon::Status(kanon::StatusCode::kInternal, "not decoded");
  {
    ScopedSpan span(tracer, s_decode_req_);
    kanon::StatusOr<std::string> body = kanon::DecodeFrameExact(frame);
    if (body.ok()) decoded = kanon::DecodeNetRequest(*body);
  }
  KANON_CHECK(decoded.ok()) << decoded.status().ToString();
  kanon::AnonymizeRequest request = std::move(decoded->request);
  {
    ScopedSpan span(tracer, s_parse_);
    kanon::StatusOr<Table> table = kanon::ParseTableCsv(request.csv_text);
    KANON_CHECK(table.ok()) << table.status().ToString();
    request.table.emplace(*std::move(table));
    request.csv_text.clear();
  }
  {
    ScopedSpan span(tracer, s_validate_);
    kanon::ServiceError error = kanon::ServiceError::kNone;
    const kanon::Status valid = kanon::ValidateAndPrepare(request, &error);
    KANON_CHECK(valid.ok()) << valid.ToString();
  }
  const Table& table = *request.table;

  // The worker's Execute path, step by step.
  kanon::CacheKey key;
  key.algorithm = request.algorithm;
  key.k = request.k;
  {
    ScopedSpan span(tracer, s_fingerprint_);
    key.table_fp = kanon::TableFingerprint(table);
  }
  std::optional<kanon::CachedResult> cached;
  {
    ScopedSpan span(tracer, s_lookup_);
    cached = cache_.Lookup(key);
  }
  kanon::AnonymizeResponse response;
  response.algorithm = request.algorithm;
  response.k = request.k;
  response.rows = table.num_rows();
  std::optional<AnonymizationResult> accepted;
  if (cached.has_value()) {
    response.cache_hit = true;
    response.cost = cached->cost;
    response.stage = cached->stage;
    response.chain = cached->chain;
    response.termination = cached->termination;
    response.anonymized_csv = std::move(cached->anonymized_csv);
  } else {
    RunContext ctx;
    if (request.node_budget > 0) ctx.set_node_budget(request.node_budget);
    if (uses_oracle_) {
      // Built on the job context, where every stage's scratch lookup
      // finds it (the lookup walks ancestors), so no stage rebuilds it.
      ScopedSpan span(tracer, s_oracle_);
      const auto oracle = kanon::SharedDistanceOracle(table, &ctx);
      KANON_CHECK(oracle.ok()) << oracle.status().ToString();
      ++out_.oracle_builds;
      if ((*oracle)->dense()) {
        const double n = table.num_rows();
        out_.oracle_dense_bytes += n * n * sizeof(kanon::ColId);
      }
    }
    gate_.Script(&s.chain);
    stage_log_.clear();
    AnonymizationResult result;
    {
      ScopedSpan span(tracer, s_chain_);
      kanon::FallbackAnonymizer chain(chain_options_);
      result = chain.Run(table, request.k, &ctx);
    }
    ++out_.chain_runs;
    for (const auto& [stage, ns] : stage_log_) {
      if (stage == result.stage) out_.accepted_stage_ns += ns;
    }
    out_.nodes_by_table.emplace(s.table, ctx.nodes_charged());
    response.cost = result.cost;
    response.stage = result.stage;
    response.termination = result.termination;
    response.chain = ExtractChain(result.notes);
    Table anonymized(table.schema());
    {
      ScopedSpan span(tracer, s_suppress_);
      anonymized = result.MakeSuppressor(table).Apply(table);
    }
    {
      ScopedSpan span(tracer, s_render_);
      response.anonymized_csv = kanon::TableToCsv(anonymized);
    }
    if (Cacheable(result, request.node_budget, ctx)) {
      ScopedSpan span(tracer, s_insert_);
      kanon::CachedResult entry;
      entry.partition = result.partition;
      entry.cost = result.cost;
      entry.stage = result.stage;
      entry.chain = response.chain;
      entry.termination = result.termination;
      entry.anonymized_csv = response.anonymized_csv;
      cache_.Insert(key, std::move(entry));
    }
    accepted = std::move(result);
  }
  out_.cost_by_table.emplace(s.table, response.cost);

  if (traced_ && accepted.has_value() && diagnosed_.insert(s.table).second) {
    // Re-runs of work the chain already did inside its stages, timed on
    // their own once per distinct table; not part of the Execute path.
    kanon::WallTimer diagnostic;
    {
      ScopedSpan span(tracer, s_finalize_);
      AnonymizationResult copy;
      copy.partition = accepted->partition;
      kanon::FinalizeResult(table, &copy);
    }
    {
      ScopedSpan span(tracer, s_diameter_);
      (void)kanon::DiameterSum(table, accepted->partition);
    }
    {
      ScopedSpan span(tracer, s_valid_);
      KANON_CHECK(kanon::IsValidPartition(accepted->partition,
                                          table.num_rows(), request.k,
                                          table.num_rows()));
    }
    out_.diagnostic_s += diagnostic.Seconds();
  }

  if (response.chain != s.chain || response.cost != s.cost) {
    if (out_.mismatches++ == 0) {
      out_.first_mismatch = "job " + std::to_string(s.job_id) + " table " +
                            std::to_string(s.table) + ": served " + s.chain +
                            " cost " + std::to_string(s.cost) +
                            ", replayed " + response.chain + " cost " +
                            std::to_string(response.cost);
    }
  }

  std::string response_frame;
  {
    ScopedSpan span(tracer, s_encode_resp_);
    response_frame = kanon::EncodeNetResponse(
        kanon::MakeNetResponse(kanon::NetVerb::kAnonymize, r + 1, response));
  }
  out_.response_frame_bytes += response_frame.size();
  {
    ScopedSpan span(tracer, s_decode_resp_);
    kanon::StatusOr<std::string> body =
        kanon::DecodeFrameExact(response_frame);
    KANON_CHECK(body.ok() && kanon::DecodeNetResponse(*body).ok());
  }
}

}  // namespace

ReplayResult Replay(const Workload& workload,
                    const std::vector<ServedRequest>& served,
                    Tracer* tracer, size_t count, size_t prefix) {
  const uint32_t s_request = tracer->Intern("replay.request");
  Replayer replayer(workload, tracer);
  ReplayResult& out = replayer.result();
  count = std::min(count, served.size());
  if (tracer->enabled()) out.execute_ms.reserve(count);
  kanon::WallTimer wall;
  for (uint64_t r = 0; r < count; ++r) {
    if (r == prefix) out.prefix_s = wall.Seconds() - out.diagnostic_s;
    tracer->BeginRequest(r);
    {
      ScopedSpan span(tracer, s_request);
      replayer.One(r, served[r]);
    }
    const double execute_ms = tracer->EndRequest();
    if (tracer->enabled()) out.execute_ms.push_back(execute_ms);
  }
  out.requests = count;
  out.wall_s = wall.Seconds();
  if (prefix >= count) out.prefix_s = out.wall_s - out.diagnostic_s;
  return std::move(out);
}

uint64_t SumKnnLowerBound(const Workload& workload,
                          const std::map<uint32_t, uint64_t>& tables) {
  uint64_t sum = 0;
  for (const auto& [index, cost] : tables) {
    const Table& table = workload.tables[index];
    auto oracle = kanon::DistanceOracle::Create(table, {}, nullptr);
    KANON_CHECK(oracle.ok()) << oracle.status().ToString();
    sum += kanon::KnnLowerBound(table, **oracle, workload.k);
  }
  return sum;
}

}  // namespace perfbench
