#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mutable/delta_store.h"
#include "rdf/term.h"

namespace perfbench {

/// A generated dataset in the form a user hands PARJ: N-Triples text.
struct Dataset {
  std::string ntriples;
  /// The same statements as string-level triples; filled only when asked
  /// for (the ingest workload rebuilds base ∪ mutations from them).
  std::vector<parj::rdf::Triple> triples;
  uint64_t statements = 0;
};

Dataset MakeLubm(int universities, uint64_t seed, bool keep_triples);
Dataset MakeWatdiv(int scale, uint64_t seed, bool keep_triples);

/// Distinct query texts plus, per text, the template it came from.
struct Population {
  std::vector<std::string> sparql;
  std::vector<std::string> template_name;
};

/// The ten LUBM queries, each with every university / department /
/// course constant it takes, plus the two aggregation shapes (GROUP BY
/// and GROUP BY + ORDER BY/LIMIT). Request streams draw a template
/// uniformly, then one of its instances, so the constants are redrawn per
/// request and the population is the same for every seed.
Population LubmAnalyticPopulation(int universities);

/// `size` instantiations of the WatDiv S1, F2, F5 and C2 templates for a
/// dataset of `scale`, in rank order: rank r holds template r mod 4, so
/// every Zipf rank band carries the same template mix. The population is
/// the same for every seed.
Population WatdivPopulation(int scale, int size);

/// Population indices for a closed-loop analytic client: template
/// uniformly, then instance uniformly.
std::vector<uint32_t> TemplateUniformStream(const Population& population,
                                            size_t length, uint64_t seed);

/// Population indices drawn Zipf(1) over the population's rank order.
std::vector<uint32_t> ZipfStream(size_t population, size_t length,
                                 uint64_t seed);

/// The N-Triples line of a triple (without the newline); the identity a
/// triple keeps across engines.
std::string TripleKey(const parj::rdf::Triple& triple);

/// Deterministic stream of new WatDiv user activity: likes, reviews and
/// purchases of existing users and products, with about 10% of mutations
/// removing an earlier insert.
class ActivityStream {
 public:
  ActivityStream(int scale, uint64_t seed);

  /// The next `size` mutations.
  std::vector<parj::mut::Mutation> NextBatch(size_t size);

 private:
  void QueueActivity();

  parj::Rng rng_;
  const uint64_t users_;
  const uint64_t products_;
  uint64_t next_entity_ = 0;
  std::deque<parj::rdf::Triple> queued_;
  std::vector<parj::rdf::Triple> live_;  ///< inserted, not yet removed
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
