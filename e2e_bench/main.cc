// whynot_e2e — end-to-end why-not serving benchmark.
//
//   whynot_e2e --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR]
//
// One closed-loop client in one process drives the library along the path
// whynot_cli takes: text documents -> text::Parse* -> rel::Evaluate ->
// (OBDA) ObdaSpec::Validate/CheckConsistent + ObdaInducedOntology ->
// ExplainSession::Bind[WithAnswers] (+ CheckConsistent) -> one session
// request per operation -> rendered explanation text. The engine pool is
// fixed at kPoolWidth threads.
//
// Run shape:
//  * set-up runs for a warm-up of at least kWarmupSetupSeconds, then
//    kSetupSamples more times, one binding alive at a time; setup_s is the
//    median of those samples, and the last binding serves the operations;
//  * the first WindowOps() operations are a fixed warm-up window: their
//    rendered outputs form the repeatable `digest_window`, and the engine
//    counters are read at its end, so both repeat exactly for a seed;
//  * then operations are timed for --seconds of measured time; the timed
//    metrics cover every one of those operations;
//  * operations go on, untimed, at least until operation RssOp(), where
//    peak RSS and the session's memory usage are read;
//  * every VerifyStride()-th operation is recomputed through the one-shot
//    entry point outside the timed region and compared byte for byte.
//
// Any operation that returns a non-OK status or whose output differs from
// the one-shot recomputation is failed, and a run with a failed operation
// is not correct (exit code 1).
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (span self times and engine counters; spans are written to
// DIR/trace-<workload>-<seed>.json). The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "trace.h"
#include "whynot/whynot.h"

namespace wn = whynot;

namespace e2e {
namespace {

constexpr int kPoolWidth = 2;
// The first set-ups of a process run up to 3x slower while the allocator
// and the host warm up to sustained load; set-ups of the first
// kWarmupSetupSeconds (and at least kWarmupSetups) are reported but not
// part of setup_s. The sampled ones run before the serving session exists,
// so setup_s does not depend on how large that session's caches have grown.
constexpr size_t kWarmupSetups = 4;
constexpr double kWarmupSetupSeconds = 2.0;
constexpr size_t kSetupSamples = 15;

// The window is also the warm-up: about two seconds of operations, because
// on a shared virtual machine the first second or two of sustained load
// runs up to a third slower, and a fixed count (not a time) leaves the
// session's caches in the same state whenever timing starts.
// Every VerifyStride()-th operation is recomputed one-shot. The one-shot
// ExhaustiveSearchAllMge rebuilds the answer covers of ~60k answers (about
// 0.1 s), hence the wider stride there; about 40-120 checks per run.
size_t VerifyStride(Workload w) {
  switch (w) {
    case Workload::kObdaTravel:
      return 400;
    case Workload::kDerivedEnumerate:
      return 50;
    case Workload::kAppendWhyNot:
      return 25;
  }
  return 1;
}

// Peak RSS is read after this operation, at a fixed index every run
// reaches (a run whose timed phase ends earlier goes on untimed until
// here), so the reading does not depend on throughput. On obda-travel and
// derived-enumerate it is late in the run and includes the growth of the
// session's caches. append-whynot drops those caches on every write; what
// its RSS gains after the first few hundred operations is allocator
// fragmentation across the two pool threads, which differs by up to 15%
// between two runs of one seed, so it is read early. Each index is below
// the number of asked tuples.
size_t RssOp(Workload w) {
  switch (w) {
    case Workload::kObdaTravel:
      return 6000;
    case Workload::kDerivedEnumerate:
      return 4000;
    case Workload::kAppendWhyNot:
      return 300;
  }
  return 0;
}

size_t WindowOps(Workload w) {
  switch (w) {
    case Workload::kObdaTravel:
      return 1000;
    case Workload::kDerivedEnumerate:
      return 400;
    case Workload::kAppendWhyNot:
      return 200;
  }
  return 0;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

// FNV-1a, 64 bit.
class Digest {
 public:
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// High-water resident set size of the process so far.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

size_t CountLines(const std::string& text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

// --- binding ---------------------------------------------------------------

// Everything one set-up builds; heap-pinned because the session keeps raw
// pointers to the instance, the ontology and the prune counters.
struct Binding {
  std::unique_ptr<wn::rel::Schema> schema;
  std::unique_ptr<wn::rel::Instance> instance;
  wn::rel::UnionQuery query;
  std::vector<wn::Tuple> answers;
  std::unique_ptr<wn::obda::ObdaSpec> spec;
  std::unique_ptr<wn::obda::ObdaInducedOntology> ontology;
  std::unique_ptr<wn::explain::PruneStats> prune;
  wn::explain::ExplainSessionOptions options;
  std::unique_ptr<wn::explain::ExplainSession> session;
};

wn::Result<std::unique_ptr<Binding>> SetUp(Workload w, const TextInputs& in,
                                           Tracer* tracer) {
  auto b = std::make_unique<Binding>();
  ScopedSpan root(tracer, "setup", -1);
  const bool obda = w == Workload::kObdaTravel;
  wn::dl::TBox tbox;
  std::vector<wn::obda::GavMapping> mappings;
  {
    ScopedSpan span(tracer, "text.parse", -1);
    WHYNOT_ASSIGN_OR_RETURN(wn::rel::Schema schema,
                            wn::text::ParseSchema(in.schema));
    b->schema = std::make_unique<wn::rel::Schema>(std::move(schema));
    b->instance = std::make_unique<wn::rel::Instance>(b->schema.get());
    WHYNOT_RETURN_IF_ERROR(
        wn::text::ParseFactsInto(in.facts, b->instance.get()));
    WHYNOT_ASSIGN_OR_RETURN(b->query,
                            wn::text::ParseQuery(in.query, *b->schema));
    if (obda) {
      WHYNOT_ASSIGN_OR_RETURN(tbox, wn::text::ParseTBox(in.tbox));
      WHYNOT_ASSIGN_OR_RETURN(mappings,
                              wn::text::ParseMappings(in.mappings, *b->schema));
    }
  }
  if (w != Workload::kAppendWhyNot) {
    ScopedSpan span(tracer, "relational.eval", -1);
    WHYNOT_ASSIGN_OR_RETURN(b->answers,
                            wn::rel::Evaluate(b->query, *b->instance));
  }
  if (obda) {
    {
      ScopedSpan span(tracer, "obda.check", -1);
      b->spec = std::make_unique<wn::obda::ObdaSpec>(
          std::move(tbox), b->schema.get(), std::move(mappings));
      WHYNOT_RETURN_IF_ERROR(b->spec->Validate());
      WHYNOT_RETURN_IF_ERROR(b->spec->CheckConsistent(*b->instance));
    }
    ScopedSpan span(tracer, "obda.induce", -1);
    b->ontology =
        std::make_unique<wn::obda::ObdaInducedOntology>(b->spec.get());
  }
  b->prune = std::make_unique<wn::explain::PruneStats>();
  b->options.exhaustive.prune_stats = b->prune.get();
  {
    ScopedSpan span(tracer, "explain.bind", -1);
    if (w == Workload::kAppendWhyNot) {
      WHYNOT_ASSIGN_OR_RETURN(
          wn::explain::ExplainSession session,
          wn::explain::ExplainSession::Bind(b->instance.get(), b->query,
                                            nullptr, b->options));
      b->session =
          std::make_unique<wn::explain::ExplainSession>(std::move(session));
    } else {
      WHYNOT_ASSIGN_OR_RETURN(
          wn::explain::ExplainSession session,
          wn::explain::ExplainSession::BindWithAnswers(
              b->instance.get(), b->answers, b->ontology.get(), b->options));
      b->session =
          std::make_unique<wn::explain::ExplainSession>(std::move(session));
    }
  }
  if (obda) {
    ScopedSpan span(tracer, "ontology.consistency", -1);
    WHYNOT_RETURN_IF_ERROR(b->session->CheckConsistent());
  }
  return b;
}

// --- requests --------------------------------------------------------------

struct Reply {
  std::vector<wn::explain::Explanation> external;
  std::vector<wn::explain::LsExplanation> derived;
};

wn::Status Request(Workload w, Binding* b, const wn::Tuple& asked,
                   Reply* reply, wn::explain::EnumerateStats* stats) {
  switch (w) {
    case Workload::kObdaTravel: {
      WHYNOT_ASSIGN_OR_RETURN(reply->external,
                              b->session->ExhaustiveMges(asked));
      return wn::Status::OK();
    }
    case Workload::kDerivedEnumerate: {
      WHYNOT_ASSIGN_OR_RETURN(reply->derived,
                              b->session->EnumerateMges(asked, stats));
      return wn::Status::OK();
    }
    case Workload::kAppendWhyNot: {
      WHYNOT_ASSIGN_OR_RETURN(wn::explain::LsExplanation e,
                              b->session->WhyNot(asked));
      reply->derived.push_back(std::move(e));
      return wn::Status::OK();
    }
  }
  return wn::Status::Internal("unknown workload");
}

std::string RenderExternal(const wn::onto::BoundOntology& bound,
                           const std::vector<wn::explain::Explanation>& es) {
  std::string out;
  for (const auto& e : es) {
    out += wn::explain::ExplanationToString(bound, e);
    out += '\n';
  }
  return out;
}

std::string RenderDerived(const wn::rel::Schema& schema,
                          const std::vector<wn::explain::LsExplanation>& es) {
  std::string out;
  for (const auto& e : es) {
    out += wn::explain::LsExplanationToString(schema, e);
    out += '\n';
  }
  return out;
}

std::string Render(Workload w, Binding* b, const Reply& reply) {
  if (w == Workload::kObdaTravel) {
    return RenderExternal(*b->session->bound_ontology(), reply.external);
  }
  return RenderDerived(*b->schema, reply.derived);
}

// The one-shot recomputation of an operation against the instance as it
// is now: ExhaustiveSearchAllMge (a fresh BoundOntology over the same
// induced ontology, built once per run), EnumerateAllMges, or
// IncrementalSearch on a freshly evaluated answer set.
class Verifier {
 public:
  Verifier(Workload w, Binding* b) : w_(w), b_(b) {}

  wn::Result<std::string> OneShot(const wn::Tuple& asked) {
    switch (w_) {
      case Workload::kObdaTravel: {
        if (bound_ == nullptr) {
          bound_ = std::make_unique<wn::onto::BoundOntology>(
              b_->ontology.get(), b_->instance.get());
        }
        WHYNOT_ASSIGN_OR_RETURN(wn::explain::WhyNotInstance wni,
                                wn::explain::MakeWhyNotInstanceFromAnswers(
                                    b_->instance.get(), b_->answers, asked));
        wn::explain::ExhaustiveOptions options = b_->options.exhaustive;
        options.prune_stats = nullptr;
        WHYNOT_ASSIGN_OR_RETURN(
            std::vector<wn::explain::Explanation> es,
            wn::explain::ExhaustiveSearchAllMge(bound_.get(), wni, options));
        return RenderExternal(*bound_, es);
      }
      case Workload::kDerivedEnumerate: {
        WHYNOT_ASSIGN_OR_RETURN(wn::explain::WhyNotInstance wni,
                                wn::explain::MakeWhyNotInstanceFromAnswers(
                                    b_->instance.get(), b_->answers, asked));
        WHYNOT_ASSIGN_OR_RETURN(
            std::vector<wn::explain::LsExplanation> es,
            wn::explain::EnumerateAllMges(wni, b_->options.enumerate));
        return RenderDerived(*b_->schema, es);
      }
      case Workload::kAppendWhyNot: {
        WHYNOT_ASSIGN_OR_RETURN(wn::explain::WhyNotInstance wni,
                                wn::explain::MakeWhyNotInstance(
                                    b_->instance.get(), b_->query, asked));
        WHYNOT_ASSIGN_OR_RETURN(
            wn::explain::LsExplanation e,
            wn::explain::IncrementalSearch(wni, b_->options.incremental));
        return RenderDerived(*b_->schema, {e});
      }
    }
    return wn::Status::Internal("unknown workload");
  }

 private:
  Workload w_;
  Binding* b_;
  std::unique_ptr<wn::onto::BoundOntology> bound_;
};

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void WriteTrace(const std::string& path, Workload w, uint64_t seed,
                const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  out << "{\"workload\": \"" << WorkloadName(w) << "\", \"seed\": " << seed
      << ", \"pool_width\": " << kPoolWidth << ",\n \"spans\": [\n";
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"start_us\": " << Num(s.start_ns / 1e3)
        << ", \"end_us\": " << Num(s.end_ns / 1e3) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
}

struct Args {
  Workload workload = Workload::kObdaTravel;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

int Run(const Args& args) {
  wn::par::SetNumThreads(kPoolWidth);
  const Workload w = args.workload;
  const TextInputs in = MakeInputs(w, args.seed);
  std::vector<wn::Tuple> asked, appended;
  for (const std::string& t : in.asked) {
    asked.push_back(wn::text::ParseTuple(t).value());
  }
  for (const std::string& t : in.appended) {
    appended.push_back(wn::text::ParseTuple(t).value());
  }

  Tracer tracer(args.trace);
  // One timed set-up that replaces the binding; spans are recorded in
  // traced runs.
  std::unique_ptr<Binding> b;
  auto setup_into = [&](std::vector<double>* times) {
    b.reset();
    tracer.set_active(true);
    Clock::time_point t0 = Clock::now();
    auto bound = SetUp(w, in, &tracer);
    times->push_back(Ms(Clock::now() - t0) / 1e3);
    if (!bound.ok()) {
      std::cerr << "set-up failed: " << bound.status().ToString() << "\n";
      return false;
    }
    b = std::move(bound).value();
    return true;
  };
  std::vector<double> warmup_setup_s, setup_s;
  double warmup_total_s = 0;
  while (warmup_setup_s.size() < kWarmupSetups ||
         warmup_total_s < kWarmupSetupSeconds) {
    if (!setup_into(&warmup_setup_s)) return 1;
    warmup_total_s += warmup_setup_s.back();
  }
  while (setup_s.size() < kSetupSamples) {
    if (!setup_into(&setup_s)) return 1;
  }

  const size_t answers_at_setup = b->session->answers().size();
  Verifier verifier(w, b.get());
  const size_t window = WindowOps(w);
  Digest window_digest, all_digest;
  std::string first_record;
  size_t attempted = 0, failed = 0, mismatches = 0, verified = 0;
  double verify_ms = 0;
  double traced_ms = 0, untraced_ms = 0;
  size_t traced_ops = 0, untraced_ops = 0;
  std::vector<double> rewarm_ms;
  wn::explain::EnumerateStats enum_stats;
  size_t enum_outputs = 0;
  wn::ls::ConceptCacheStats cache_before = b->session->CacheStats();
  wn::ls::ConceptCacheStats cache_delta;
  wn::explain::PruneStats prune_window;
  wn::explain::ExplainSession::MemoryStats memory;
  double peak_rss_mb = 0;
  const size_t rss_op = RssOp(w);

  Clock::duration measured{0};  // busy time of the timed operations
  std::vector<double> latency_ms;  // timed ops; failed ops count as +inf
  size_t measured_ok = 0;
  // Timed operations per second of measured time, for the report only: it
  // shows the host's fast and slow phases.
  std::vector<size_t> ops_per_second(
      static_cast<size_t>(std::ceil(args.seconds)));
  Clock::time_point resume = Clock::now();
  for (size_t i = 0;; ++i) {
    const bool in_window = i < window;
    const bool timed = !in_window && Ms(measured) < args.seconds * 1e3;
    if (!in_window && !timed && i > rss_op) break;
    // Every operation asks a distinct tuple; a run that exhausts them ends
    // early rather than repeat one (a repeat would be served from cache).
    if (i >= asked.size()) break;
    if (w == Workload::kAppendWhyNot && i >= appended.size()) break;
    const int64_t op = static_cast<int64_t>(i);
    const wn::Tuple& tuple = asked[i];
    tracer.set_active(i % 2 == 0);

    Clock::time_point t0 = Clock::now();
    int root = tracer.Open("op", op);
    wn::Status status;
    if (w == Workload::kAppendWhyNot) {
      ScopedSpan span(&tracer, "relational.append", op);
      status = b->instance->AddFact("Stock", appended[i]);
    }
    Reply reply;
    int request = tracer.Open("explain.request", op);
    Clock::time_point rq0 = Clock::now();
    wn::explain::EnumerateStats op_stats;
    if (status.ok()) status = Request(w, b.get(), tuple, &reply, &op_stats);
    Clock::duration request_time = Clock::now() - rq0;
    tracer.Close(request);
    std::string rendered;
    if (status.ok()) {
      ScopedSpan span(&tracer, "text.render", op);
      rendered = Render(w, b.get(), reply);
    }
    tracer.Close(root);
    Clock::time_point t1 = Clock::now();
    double op_ms = Ms(t1 - t0);

    // Outside the timed region from here on.
    const Clock::duration busy = t1 - resume;
    if (timed) measured += busy;
    ++attempted;
    bool ok = status.ok();
    if (!ok) {
      std::cerr << "op " << i << " failed: " << status.ToString() << "\n";
    }
    std::string record = std::to_string(i) + " " + wn::TupleToString(tuple) +
                         "\n" + (ok ? rendered : status.ToString()) + "\n";
    all_digest.Add(record);
    if (in_window) window_digest.Add(record);
    if (i == 0) first_record = record;
    if (w == Workload::kDerivedEnumerate && in_window) {
      enum_stats.nodes_expanded += op_stats.nodes_expanded;
      enum_stats.duplicate_outputs += op_stats.duplicate_outputs;
      enum_stats.visited_hits += op_stats.visited_hits;
      enum_stats.max_delay = std::max(enum_stats.max_delay, op_stats.max_delay);
      enum_outputs += reply.derived.size();
    }
    if (ok && i % VerifyStride(w) == 0) {
      ++verified;
      Clock::time_point v0 = Clock::now();
      auto expected = verifier.OneShot(tuple);
      verify_ms += Ms(Clock::now() - v0);
      if (!expected.ok() || expected.value() != rendered) {
        std::cerr << "op " << i << " " << wn::TupleToString(tuple)
                  << ": session output differs from the one-shot "
                     "recomputation\n";
        ++mismatches;
        ok = false;
      }
    }
    if (ok && args.trace && w == Workload::kAppendWhyNot) {
      // Rewarm cost: the same request again with no write in between.
      Reply again;
      int repeat = tracer.Open("explain.request_repeat", op);
      Clock::time_point r0 = Clock::now();
      wn::Status st = Request(w, b.get(), tuple, &again, nullptr);
      Clock::duration repeat_time = Clock::now() - r0;
      tracer.Close(repeat);
      if (!st.ok() || Render(w, b.get(), again) != rendered) {
        std::cerr << "op " << i << ": repeated request differs\n";
        ++mismatches;
        ok = false;
      } else {
        rewarm_ms.push_back(Ms(request_time) - Ms(repeat_time));
      }
    }
    if (!ok) ++failed;
    if (timed) {
      latency_ms.push_back(ok ? op_ms
                              : std::numeric_limits<double>::infinity());
      ++ops_per_second[std::min(ops_per_second.size() - 1,
                                static_cast<size_t>(Ms(measured) / 1e3))];
      if (ok) ++measured_ok;
      if (i % 2 == 0) {
        traced_ms += op_ms;
        ++traced_ops;
      } else {
        untraced_ms += op_ms;
        ++untraced_ops;
      }
    }
    if (i + 1 == window) {
      wn::ls::ConceptCacheStats now = b->session->CacheStats();
      cache_delta.shared_hits = now.shared_hits - cache_before.shared_hits;
      cache_delta.local_hits = now.local_hits - cache_before.local_hits;
      cache_delta.misses = now.misses - cache_before.misses;
      cache_delta.publishes = now.publishes - cache_before.publishes;
      cache_delta.evictions = now.evictions - cache_before.evictions;
      prune_window = *b->prune;
    }
    if (i == rss_op) {
      memory = b->session->MemoryUsage();
      peak_rss_mb = PeakRssMb();
    }
    resume = Clock::now();
  }
  if (attempted <= rss_op) {
    std::cerr << "error: the run ended before operation " << rss_op << "\n";
    return 1;
  }

  const double measured_s = Ms(measured) / 1e3;
  const double error_rate =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 1.0;

  std::cout << "workload " << WorkloadName(w) << " seed " << args.seed
            << " pool_width " << kPoolWidth << "\n"
            << "sizes facts " << CountLines(in.facts) << " answers "
            << answers_at_setup << " concepts "
            << (b->ontology ? b->ontology->NumConcepts() : 0)
            << " distinct_asked " << std::min(asked.size(), attempted)
            << " appended " << (appended.empty() ? 0 : attempted)
            << " peak_rss_mb_end " << PeakRssMb() << "\n"
            << "ops attempted " << attempted << " failed " << failed
            << " verified " << verified << " (" << verify_ms / 1e3
            << " s) mismatches " << mismatches
            << " measured " << latency_ms.size() << " in " << measured_s
            << " s\n"
            << "digest_window " << window_digest.Hex() << " digest_all "
            << all_digest.Hex() << "\n"
            << "error_rate " << error_rate << " ratio\n"
            << "first op " << first_record << "setup_s "
            << warmup_setup_s.size() << " warm-up in " << warmup_total_s
            << " s, samples";
  for (double t : setup_s) std::cout << " " << t;
  std::cout << "\nops_per_second";
  for (size_t n : ops_per_second) std::cout << " " << n;
  std::cout << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_rps", static_cast<double>(measured_ok) / measured_s,
         "1/s"},
        {"latency_p50_ms", Percentile(latency_ms, 0.50), "ms"},
        {"latency_p99_ms", Percentile(latency_ms, 0.99), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    std::map<std::string, std::vector<double>> self = tracer.SelfTimesMs();
    auto layer = [&](const char* span) {
      auto it = self.find(span);
      return it == self.end() ? 0.0 : Median(it->second);
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    size_t cache_hits = cache_delta.shared_hits + cache_delta.local_hits;
    double traced_rps = ratio(traced_ops, traced_ms / 1e3);
    double untraced_rps = ratio(untraced_ops, untraced_ms / 1e3);
    double prune_total = static_cast<double>(prune_window.products_enumerated) +
                         static_cast<double>(prune_window.products_skipped);
    metrics = {
        {"text.parse_ms", layer("text.parse"), "ms"},
        {"text.render_ms", layer("text.render"), "ms"},
        {"relational.eval_ms", layer("relational.eval"), "ms"},
        {"relational.append_ms", layer("relational.append"), "ms"},
        {"obda.check_ms", layer("obda.check"), "ms"},
        {"obda.induce_ms", layer("obda.induce"), "ms"},
        {"ontology.consistency_ms", layer("ontology.consistency"), "ms"},
        {"obda.concepts",
         static_cast<double>(b->ontology ? b->ontology->NumConcepts() : 0),
         "count"},
        {"explain.bind_ms", layer("explain.bind"), "ms"},
        {"explain.request_ms", layer("explain.request"), "ms"},
        {"explain.rewarm_ms", Median(rewarm_ms), "ms"},
        {"explain.prune.products_enumerated",
         static_cast<double>(prune_window.products_enumerated), "count"},
        {"explain.prune.products_skipped",
         static_cast<double>(prune_window.products_skipped), "count"},
        {"explain.prune.downset_hits",
         static_cast<double>(prune_window.downset_hits), "count"},
        {"explain.prune.waves", static_cast<double>(prune_window.waves),
         "count"},
        {"explain.prune.tested_ratio",
         ratio(static_cast<double>(prune_window.products_enumerated),
               prune_total),
         "ratio"},
        {"enumerate.nodes_expanded",
         static_cast<double>(enum_stats.nodes_expanded), "count"},
        {"enumerate.duplicate_outputs",
         static_cast<double>(enum_stats.duplicate_outputs), "count"},
        {"enumerate.visited_hits",
         static_cast<double>(enum_stats.visited_hits), "count"},
        {"enumerate.max_delay", static_cast<double>(enum_stats.max_delay),
         "count"},
        {"enumerate.useful_ratio",
         ratio(static_cast<double>(enum_outputs),
               static_cast<double>(enum_stats.nodes_expanded)),
         "ratio"},
        {"concepts.cache_hits", static_cast<double>(cache_hits), "count"},
        {"concepts.cache_misses", static_cast<double>(cache_delta.misses),
         "count"},
        {"concepts.cache_publishes",
         static_cast<double>(cache_delta.publishes), "count"},
        {"concepts.cache_evictions",
         static_cast<double>(cache_delta.evictions), "count"},
        {"concepts.cache_hit_ratio",
         ratio(static_cast<double>(cache_hits),
               static_cast<double>(cache_hits + cache_delta.misses)),
         "ratio"},
        {"memory.instance_bytes", static_cast<double>(memory.instance_bytes),
         "bytes"},
        {"memory.ext_bytes", static_cast<double>(memory.ext_bytes), "bytes"},
        {"memory.cover_bytes", static_cast<double>(memory.cover_bytes),
         "bytes"},
        {"memory.eval_cache_bytes",
         static_cast<double>(memory.eval_cache_bytes), "bytes"},
        {"memory.shared_cache_bytes",
         static_cast<double>(memory.shared_cache_bytes), "bytes"},
        {"memory.total_bytes", static_cast<double>(memory.total_bytes),
         "bytes"},
        {"trace.overhead_rps", untraced_rps - traced_rps, "1/s"},
    };
    std::cout << "per-layer self time (median ms, spans):\n";
    for (const auto& [name, times] : self) {
      double total = 0;
      for (double t : times) total += t;
      std::cout << "  " << name << " median " << Median(times) << " total "
                << total << " n " << times.size() << "\n";
    }
    std::string path = args.out_dir + "/trace-" + WorkloadName(w) + "-" +
                       std::to_string(args.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    WriteTrace(path, w, args.seed, tracer);
    std::cout << "trace " << path << " (" << tracer.spans().size()
              << " spans)\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << Num(m.value) << " " << m.unit
              << "\n";
  }
  const bool correct = failed == 0 && attempted > 0;
  std::cout << ResultLine(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: whynot_e2e --workload obda-travel|derived-enumerate|"
                 "append-whynot --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n";
    return 2;
  }
  return e2e::Run(args);
}
