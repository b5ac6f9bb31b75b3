// Seeded text generators for the end-to-end why-not benchmark.
//
// Every workload is generated as the documents a user would hand to
// whynot_cli (schema, facts, query, and for the OBDA route a TBox and GAV
// mappings), plus the stream of tuples its operations ask about. The same
// seed always yields byte-identical text. The seed varies names, values and
// assignments, never the shape: counts of cities, products, stores,
// concepts and rows are fixed, so work per run does not drift with the seed.

#ifndef E2E_BENCH_INPUTS_H_
#define E2E_BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class Workload { kObdaTravel, kDerivedEnumerate, kAppendWhyNot };

/// Parses a workload name ("obda-travel", "derived-enumerate",
/// "append-whynot"); false when the name is unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

struct TextInputs {
  std::string schema;
  std::string facts;
  std::string query;
  std::string tbox;      // OBDA route only
  std::string mappings;  // OBDA route only
  /// Missing tuples, as `(a, b, ...)` text, in the order the operations ask
  /// them. Distinct, and none is an answer of the query over `facts`.
  std::vector<std::string> asked;
  /// append-whynot only: the Stock facts appended one per operation, as
  /// `(pid, sid)` text. Disjoint from `asked`; none is in `facts`.
  std::vector<std::string> appended;
};

TextInputs MakeInputs(Workload workload, uint64_t seed);

}  // namespace e2e

#endif  // E2E_BENCH_INPUTS_H_
