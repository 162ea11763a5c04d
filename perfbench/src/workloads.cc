#include "workloads.h"

#include <algorithm>
#include <functional>

#include "workload/lubm.h"
#include "workload/watdiv.h"

namespace perfbench {

namespace {

using parj::rdf::Term;
using parj::rdf::Triple;

Dataset FromGenerated(parj::workload::GeneratedData data, bool keep_triples) {
  Dataset out;
  out.statements = data.triples.size();
  out.ntriples.reserve(data.triples.size() * 96);
  if (keep_triples) out.triples.reserve(data.triples.size());
  for (const parj::EncodedTriple& t : data.triples) {
    Triple triple{data.dict.DecodeResource(t.subject),
                  data.dict.DecodePredicate(t.predicate),
                  data.dict.DecodeResource(t.object)};
    out.ntriples += TripleKey(triple);
    out.ntriples += '\n';
    if (keep_triples) out.triples.push_back(std::move(triple));
  }
  return out;
}

constexpr char kUbPrefix[] =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

std::string Univ(uint64_t u) {
  return "<http://www.University" + std::to_string(u) + ".edu>";
}
std::string DeptBase(uint64_t u, uint64_t d) {
  return "http://www.Department" + std::to_string(d) + ".University" +
         std::to_string(u) + ".edu";
}
std::string Dept(uint64_t u, uint64_t d) { return "<" + DeptBase(u, d) + ">"; }

constexpr char kWsdbm[] = "http://db.uwaterloo.ca/~galuc/wsdbm/";
constexpr char kRev[] = "http://purl.org/stuff/rev#";

std::string Ws(const char* kind, uint64_t i) {
  return "wsdbm:" + std::string(kind) + std::to_string(i);
}

}  // namespace

std::string TripleKey(const Triple& triple) {
  std::string line;
  triple.subject.AppendNTriples(&line);
  line += ' ';
  triple.predicate.AppendNTriples(&line);
  line += ' ';
  triple.object.AppendNTriples(&line);
  line += " .";
  return line;
}

Dataset MakeLubm(int universities, uint64_t seed, bool keep_triples) {
  return FromGenerated(
      parj::workload::GenerateLubm({.universities = universities, .seed = seed}),
      keep_triples);
}

Dataset MakeWatdiv(int scale, uint64_t seed, bool keep_triples) {
  return FromGenerated(
      parj::workload::GenerateWatdiv({.scale = scale, .seed = seed}),
      keep_triples);
}

Population LubmAnalyticPopulation(int universities) {
  // Every university has at least 15 departments and every department at
  // least 25 graduate courses, so these constants exist at any seed.
  struct Template {
    const char* name;
    std::function<std::string(uint64_t u, uint64_t d, uint64_t c)> text;
  };
  const std::vector<Template> templates = {
      {"LUBM1",
       [](uint64_t, uint64_t, uint64_t) {
         return std::string(
             "SELECT ?x ?y ?z WHERE { ?x a ub:GraduateStudent . "
             "?y a ub:University . ?z a ub:Department . ?x ub:memberOf ?z . "
             "?z ub:subOrganizationOf ?y . "
             "?x ub:undergraduateDegreeFrom ?y . }");
       }},
      {"LUBM2",
       [](uint64_t u, uint64_t d, uint64_t) {
         return "SELECT ?x ?y WHERE { ?x a ub:UndergraduateStudent . "
                "?x ub:memberOf " + Dept(u, d) +
                " . ?x ub:takesCourse ?y . }";
       }},
      {"LUBM3",
       [](uint64_t u, uint64_t, uint64_t) {
         return "SELECT ?x ?y ?w WHERE { ?w ub:publicationAuthor ?x . "
                "?x a ub:FullProfessor . ?x ub:worksFor ?y . "
                "?y ub:subOrganizationOf " + Univ(u) + " . }";
       }},
      {"LUBM4",
       [](uint64_t u, uint64_t d, uint64_t) {
         return "SELECT ?x ?n ?e ?t WHERE { ?x ub:worksFor " + Dept(u, d) +
                " . ?x a ub:FullProfessor . ?x ub:name ?n . "
                "?x ub:emailAddress ?e . ?x ub:telephone ?t . }";
       }},
      {"LUBM5",
       [](uint64_t u, uint64_t d, uint64_t) {
         return "SELECT ?x WHERE { ?x a ub:UndergraduateStudent . "
                "?x ub:memberOf " + Dept(u, d) + " . }";
       }},
      {"LUBM6",
       [](uint64_t u, uint64_t d, uint64_t c) {
         return "SELECT ?x WHERE { ?x a ub:GraduateStudent . "
                "?x ub:takesCourse <" + DeptBase(u, d) + "/GraduateCourse" +
                std::to_string(c) + "> . }";
       }},
      {"LUBM7",
       [](uint64_t u, uint64_t d, uint64_t) {
         return "SELECT ?x ?y ?z WHERE { ?x ub:takesCourse ?y . "
                "?z ub:teacherOf ?y . ?z ub:worksFor " + Dept(u, d) + " . }";
       }},
      {"LUBM8",
       [](uint64_t, uint64_t, uint64_t) {
         // Large intermediates, few answers: kept whole-dataset.
         return std::string(
             "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?y ub:headOf ?z . "
             "?x ub:memberOf ?z . ?x ub:undergraduateDegreeFrom ?w . "
             "?y ub:doctoralDegreeFrom ?w . }");
       }},
      {"LUBM9",
       [](uint64_t, uint64_t, uint64_t) {
         return std::string(
             "SELECT ?x ?y ?z WHERE { ?x ub:advisor ?y . "
             "?y ub:teacherOf ?z . ?x ub:takesCourse ?z . }");
       }},
      {"LUBM10",
       [](uint64_t, uint64_t, uint64_t) {
         return std::string(
             "SELECT ?p ?a ?d WHERE { ?p ub:publicationAuthor ?a . "
             "?a ub:worksFor ?d . ?d ub:subOrganizationOf ?u . "
             "?a ub:doctoralDegreeFrom ?u . }");
       }},
  };
  // Every constant combination, in order; a template repeats its previous
  // text when the constant that changed does not appear in it.
  Population out;
  for (const Template& t : templates) {
    const size_t first = out.sparql.size();
    for (uint64_t u = 0; u < static_cast<uint64_t>(universities); ++u) {
      for (uint64_t d = 0; d < 15; ++d) {
        for (uint64_t c = 0; c < 25; ++c) {
          std::string sparql = kUbPrefix + t.text(u, d, c);
          if (out.sparql.size() > first && sparql == out.sparql.back()) continue;
          out.sparql.push_back(std::move(sparql));
          out.template_name.push_back(t.name);
        }
      }
    }
  }
  // The aggregation shapes carry no constants either.
  out.sparql.push_back(std::string(kUbPrefix) +
                       "SELECT ?d (COUNT(*) AS ?n) WHERE { ?x ub:worksFor ?d } "
                       "GROUP BY ?d");
  out.template_name.push_back("AGG-group");
  out.sparql.push_back(std::string(kUbPrefix) +
                       "SELECT ?y (COUNT(?x) AS ?n) WHERE { ?x ub:advisor ?y . "
                       "?y ub:worksFor ?d } GROUP BY ?y "
                       "ORDER BY DESC(?n) ?y LIMIT 10");
  out.template_name.push_back("AGG-topk");
  return out;
}

Population WatdivPopulation(int scale, int size) {
  const uint64_t s = static_cast<uint64_t>(scale);
  const std::string prefix =
      "PREFIX wsdbm: <http://db.uwaterloo.ca/~galuc/wsdbm/>\n"
      "PREFIX sorg: <http://schema.org/>\n"
      "PREFIX rev: <http://purl.org/stuff/rev#>\n"
      "PREFIX gr: <http://purl.org/goodrelations/>\n"
      "PREFIX foaf: <http://xmlns.com/foaf/>\n"
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n";
  struct Template {
    const char* name;
    uint64_t domain;  ///< number of distinct constants
    std::function<std::string(uint64_t)> text;
  };
  // Entity counts follow the generator: 1000 users and 5 retailers per
  // scale unit; 25 countries at every scale.
  const std::vector<Template> templates = {
      {"S1", 5 * s,
       [](uint64_t i) {
         return "SELECT * WHERE { " + Ws("Retailer", i) +
                " gr:offers ?v0 . ?v0 gr:includes ?v1 . ?v0 gr:price ?v2 . "
                "?v0 gr:validThrough ?v3 . ?v0 gr:serialNumber ?v4 . "
                "?v1 sorg:caption ?v5 . }";
       }},
      {"F2", 5 * s,
       [](uint64_t i) {
         return "SELECT * WHERE { " + Ws("Retailer", i) +
                " gr:offers ?v0 . ?v0 gr:includes ?v1 . ?v0 gr:price ?v2 . "
                "?v1 wsdbm:hasGenre ?v3 . ?v1 sorg:caption ?v4 . }";
       }},
      {"F5", 5 * s,
       [](uint64_t i) {
         return "SELECT * WHERE { " + Ws("Retailer", i) +
                " gr:offers ?v0 . ?v0 gr:includes ?v1 . "
                "?v1 rev:hasReview ?v2 . ?v2 rev:reviewer ?v3 . "
                "?v0 gr:price ?v4 . }";
       }},
      {"C2", 1000 * s,
       [](uint64_t i) {
         return "SELECT * WHERE { " + Ws("User", i) +
                " wsdbm:follows ?v1 . ?v1 wsdbm:makesPurchase ?v2 . "
                "?v2 wsdbm:purchaseFor ?v3 . ?v3 rev:hasReview ?v4 . "
                "?v4 rev:reviewer ?v5 . ?v5 sorg:nationality " +
                Ws("Country", i % 25) + " . }";
       }},
  };
  // Constants are taken in a fixed pseudo-random order, so hot ranks are
  // typical entities rather than the generator's most popular ones.
  parj::Rng rng(0x57415444);
  Population out;
  const size_t n = templates.size();
  std::vector<std::vector<uint64_t>> order(n);
  for (size_t t = 0; t < n; ++t) {
    order[t].resize(templates[t].domain);
    for (uint64_t i = 0; i < templates[t].domain; ++i) order[t][i] = i;
    for (uint64_t i = templates[t].domain; i > 1; --i) {
      std::swap(order[t][i - 1], order[t][rng.Uniform(i)]);
    }
  }
  for (int rank = 0; rank < size; ++rank) {
    const size_t t = static_cast<size_t>(rank) % n;
    const std::vector<uint64_t>& constants = order[t];
    const uint64_t constant = constants[(static_cast<size_t>(rank) / n) % constants.size()];
    out.sparql.push_back(prefix + templates[t].text(constant));
    out.template_name.push_back(templates[t].name);
  }
  return out;
}

std::vector<uint32_t> TemplateUniformStream(const Population& population,
                                            size_t length, uint64_t seed) {
  // Instances of one template are contiguous in the population.
  std::vector<std::pair<uint32_t, uint32_t>> ranges;  // [begin, end)
  for (uint32_t i = 0; i < population.sparql.size(); ++i) {
    if (ranges.empty() || population.template_name[i] !=
                              population.template_name[ranges.back().first]) {
      ranges.emplace_back(i, i + 1);
    } else {
      ranges.back().second = i + 1;
    }
  }
  parj::Rng rng(seed ^ 0x53545245ULL);
  std::vector<uint32_t> out(length);
  for (uint32_t& index : out) {
    const auto& [begin, end] = ranges[rng.Uniform(ranges.size())];
    index = begin + static_cast<uint32_t>(rng.Uniform(end - begin));
  }
  return out;
}

std::vector<uint32_t> ZipfStream(size_t population, size_t length,
                                 uint64_t seed) {
  parj::Rng rng(seed ^ 0x5a495046ULL);
  std::vector<uint32_t> out(length);
  for (uint32_t& index : out) {
    index = static_cast<uint32_t>(rng.Zipf(population, 1.0));
  }
  return out;
}

ActivityStream::ActivityStream(int scale, uint64_t seed)
    : rng_(seed ^ 0x41435456ULL),
      users_(1000 * static_cast<uint64_t>(scale)),
      products_(250 * static_cast<uint64_t>(scale)) {}

void ActivityStream::QueueActivity() {
  const auto iri = [](const char* ns, const std::string& local) {
    return Term::Iri(std::string(ns) + local);
  };
  const Term user = iri(kWsdbm, "User" + std::to_string(rng_.Zipf(users_, 0.8)));
  const Term product =
      iri(kWsdbm, "Product" + std::to_string(rng_.Zipf(products_, 0.5)));
  const std::string fresh = std::to_string(next_entity_++);
  switch (rng_.Uniform(3)) {
    case 0:
      queued_.push_back({user, iri(kWsdbm, "likes"), product});
      break;
    case 1: {
      const Term review = iri(kWsdbm, "NewReview" + fresh);
      queued_.push_back({product, iri(kRev, "hasReview"), review});
      queued_.push_back({review, iri(kRev, "reviewer"), user});
      queued_.push_back(
          {review, iri(kRev, "rating"),
           Term::TypedLiteral(std::to_string(1 + rng_.Uniform(10)),
                              "http://www.w3.org/2001/XMLSchema#integer")});
      break;
    }
    default: {
      const Term purchase = iri(kWsdbm, "NewPurchase" + fresh);
      queued_.push_back({user, iri(kWsdbm, "makesPurchase"), purchase});
      queued_.push_back({purchase, iri(kWsdbm, "purchaseFor"), product});
      break;
    }
  }
}

std::vector<parj::mut::Mutation> ActivityStream::NextBatch(size_t size) {
  std::vector<parj::mut::Mutation> batch;
  batch.reserve(size);
  while (batch.size() < size) {
    if (!live_.empty() && rng_.Chance(0.1)) {
      const size_t victim = rng_.Uniform(live_.size());
      std::swap(live_[victim], live_.back());
      batch.push_back({std::move(live_.back()), true});
      live_.pop_back();
      continue;
    }
    if (queued_.empty()) QueueActivity();
    live_.push_back(queued_.front());
    batch.push_back({std::move(queued_.front()), false});
    queued_.pop_front();
  }
  return batch;
}

}  // namespace perfbench
