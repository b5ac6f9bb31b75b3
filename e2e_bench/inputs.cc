#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>

namespace e2e {
namespace {

// splitmix64: small, fast, and identical on every platform (the standard
// library's distributions are not specified bit-for-bit).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

std::string Pad(size_t n, int width) {
  std::string s = std::to_string(n);
  return std::string(width > static_cast<int>(s.size()) ? width - s.size() : 0,
                     '0') +
         s;
}

// --- obda-travel -----------------------------------------------------------
//
// A scaled Figure 1 travel world: 6 continents x 7 countries x 24 cities,
// three outgoing train connections per city (two inside its country, one
// to another country of its continent, never across continents), and
// three descriptive tags per city. The TBox of Figure 4 is widened by a
// continent/country hierarchy with pairwise-disjoint continents, an
// eight-step population-band chain and a 3x4x3 tag tree; GAV mappings
// ground every atomic concept in Cities or Tags. That induces 116 basic
// concepts, so a city sits in roughly 15-25 of them and each arity-3
// candidate product has thousands of members.

constexpr int kContinents = 6;
constexpr int kCountriesPerContinent = 7;
constexpr int kCitiesPerCountry = 24;
constexpr int kTagRoots = 3;
constexpr int kTagMids = 4;
constexpr int kTagLeaves = 3;
constexpr int kTagsPerCity = 4;
constexpr size_t kTravelAsked = 30000;

const char* const kContinentNames[kContinents] = {
    "Europe", "Asia", "Africa", "NAmerica", "SAmerica", "Oceania"};
const char* const kTagRootNames[kTagRoots] = {"Scenic", "Cultural",
                                              "Economic"};
const int kBands[] = {5000,   10000,  25000,   50000,
                      100000, 250000, 500000, 1000000};

std::string BandConcept(int threshold) {
  return threshold >= 1000000 ? "Pop" + std::to_string(threshold / 1000000) +
                                    "M-City"
                              : "Pop" + std::to_string(threshold / 1000) +
                                    "k-City";
}

TextInputs MakeTravel(uint64_t seed) {
  Rng rng(seed);
  TextInputs in;
  in.schema =
      "relation Cities(name, population, country, continent)\n"
      "relation TC(city_from, city_to)\n"
      "relation Tags(city, tag)\n";
  in.query = "q(x, y, v) := TC(x, z), TC(z, y), TC(y, v)";

  std::string& tbox = in.tbox;
  std::string& map = in.mappings;
  tbox +=
      "concept City <= exists hasCountry\n"
      "concept exists hasCountry^- <= Country\n"
      "concept Country <= exists hasContinent\n"
      "concept exists hasContinent^- <= Continent\n"
      "concept exists connected <= City\n"
      "concept exists connected^- <= City\n";
  map +=
      "Cities(x, p, c, k) -> City(x)\n"
      "Cities(x, p, c, k) -> hasCountry(x, c)\n"
      "Cities(x, p, c, k) -> hasContinent(c, k)\n"
      "TC(x, y) -> connected(x, y)\n";
  for (int k = 0; k < kContinents; ++k) {
    std::string cont = kContinentNames[k];
    tbox += "concept " + cont + "-City <= City\n";
    for (int k2 = k + 1; k2 < kContinents; ++k2) {
      tbox += "concept " + cont + "-City <= not " + kContinentNames[k2] +
              "-City\n";
    }
    map += "Cities(x, p, c, \"" + cont + "\") -> " + cont + "-City(x)\n";
    for (int c = 0; c < kCountriesPerContinent; ++c) {
      std::string country = cont + std::to_string(c);
      tbox += "concept " + country + "-City <= " + cont + "-City\n";
      map += "Cities(x, p, \"" + country + "\", k) -> " + country +
             "-City(x)\n";
    }
  }
  std::string parent = "City";
  for (int threshold : kBands) {
    tbox += "concept " + BandConcept(threshold) + " <= " + parent + "\n";
    map += "Cities(x, p, c, k), p >= " + std::to_string(threshold) + " -> " +
           BandConcept(threshold) + "(x)\n";
    parent = BandConcept(threshold);
  }
  std::vector<std::string> leaves;
  for (int r = 0; r < kTagRoots; ++r) {
    std::string root = kTagRootNames[r];
    tbox += "concept " + root + "-City <= City\n";
    for (int m = 0; m < kTagMids; ++m) {
      std::string mid = root + std::to_string(m);
      tbox += "concept " + mid + "-City <= " + root + "-City\n";
      for (int l = 0; l < kTagLeaves; ++l) {
        std::string leaf = mid + static_cast<char>('a' + l);
        tbox += "concept " + leaf + "-City <= " + mid + "-City\n";
        std::string tag = leaf;
        std::transform(tag.begin(), tag.end(), tag.begin(), ::tolower);
        map += "Tags(x, \"" + tag + "\") -> " + leaf + "-City(x)\n";
        leaves.push_back(tag);
      }
    }
  }

  // Cities: fixed names and placement, seeded population and tags.
  const int per_continent = kCountriesPerContinent * kCitiesPerCountry;
  const int num_cities = kContinents * per_continent;
  auto city_name = [](int i) { return "c" + Pad(static_cast<size_t>(i), 4); };
  const double lo = std::log(2000.0), hi = std::log(20000000.0);
  for (int i = 0; i < num_cities; ++i) {
    int k = i / per_continent;
    int c = (i % per_continent) / kCitiesPerCountry;
    long population = std::lround(std::exp(lo + rng.Unit() * (hi - lo)));
    in.facts += "Cities(" + city_name(i) + ", " + std::to_string(population) +
                ", " + kContinentNames[k] + std::to_string(c) + ", " +
                kContinentNames[k] + ")\n";
    std::set<size_t> tags;
    while (tags.size() < kTagsPerCity) tags.insert(rng.Below(leaves.size()));
    for (size_t t : tags) {
      in.facts += "Tags(" + city_name(i) + ", " + leaves[t] + ")\n";
    }
  }
  // Train connections: two inside the country, one to another country of
  // the same continent; targets distinct, no self loops.
  for (int i = 0; i < num_cities; ++i) {
    int country_base = i - i % kCitiesPerCountry;
    int continent_base = i - i % per_continent;
    std::set<int> targets;
    while (targets.size() < 3) {
      int t = country_base + static_cast<int>(rng.Below(kCitiesPerCountry));
      if (t != i) targets.insert(t);
    }
    while (targets.size() < 4) {
      int t = continent_base + static_cast<int>(rng.Below(per_continent));
      if (t - t % kCitiesPerCountry != country_base) targets.insert(t);
    }
    for (int t : targets) {
      in.facts += "TC(" + city_name(i) + ", " + city_name(t) + ")\n";
    }
  }
  // Asked triples (x, y, v) with x and y on different continents: no
  // connection path crosses continents, so none is an answer, and every
  // one has explanations.
  std::set<std::tuple<int, int, int>> seen;
  while (in.asked.size() < kTravelAsked) {
    int x = static_cast<int>(rng.Below(num_cities));
    int y = static_cast<int>(rng.Below(num_cities));
    int v = static_cast<int>(rng.Below(num_cities));
    if (x / per_continent == y / per_continent) continue;
    if (!seen.insert({x, y, v}).second) continue;
    in.asked.push_back("(" + city_name(x) + ", " + city_name(y) + ", " +
                       city_name(v) + ")");
  }
  return in;
}

// --- retail (derived-enumerate, append-whynot) ------------------------------
//
// The introduction's retail world at about the size of
// MakeRetailScenario(256, 8): 768 products in 6 categories and 12 brands,
// 30 stores in 10 cities and 5 regions. Every category is out of stock in
// two seeded regions, and about 1% of the remaining (product, store) pairs
// are missing at random, leaving about 13.7k Stock rows — the answers of
// q(p, s) := Stock(p, s) — and about 9.3k missing pairs to ask about.
// (Unary flag relations with exclusions such as Recalled(pid) x
// Outlet(sid) were tried: they make EnumerateMges expand ~200 nodes per
// request and grow the session's concept cache by ~9 MB per request, so
// they are left out.)

constexpr int kCategories = 6;
constexpr int kProductsPerCategory = 128;
constexpr int kBrands = 12;
constexpr int kRegions = 5;
constexpr int kBlockedRegions = 2;
constexpr int kCitiesPerRegion = 2;
constexpr int kStoresPerCity = 3;
constexpr double kRandomHoleRate = 0.01;

const char* const kCategoryNames[kCategories] = {
    "headset", "speaker", "laptop", "phone", "camera", "console"};
const char* const kRegionNames[kRegions] = {"west", "east", "north",
                                            "south", "central"};

TextInputs MakeRetail(uint64_t seed, bool split_for_appends) {
  Rng rng(seed);
  TextInputs in;
  in.schema =
      "relation Products(pid, category, brand)\n"
      "relation Stores(sid, city, region)\n"
      "relation Stock(pid, sid)\n";
  in.query = "q(p, s) := Stock(p, s)";

  const int num_products = kCategories * kProductsPerCategory;
  const int num_stores = kRegions * kCitiesPerRegion * kStoresPerCity;
  auto pid = [](int i) { return "p" + Pad(static_cast<size_t>(i), 4); };
  auto sid = [](int i) { return "s" + Pad(static_cast<size_t>(i), 2); };

  // Seeded category of every product (fixed count per category).
  std::vector<int> category(num_products);
  for (int i = 0; i < num_products; ++i) category[i] = i % kCategories;
  rng.Shuffle(&category);
  std::vector<std::vector<bool>> blocked(kCategories,
                                        std::vector<bool>(kRegions, false));
  for (int c = 0; c < kCategories; ++c) {
    std::vector<int> regions(kRegions);
    for (int r = 0; r < kRegions; ++r) regions[r] = r;
    rng.Shuffle(&regions);
    for (int k = 0; k < kBlockedRegions; ++k) blocked[c][regions[k]] = true;
  }
  for (int i = 0; i < num_products; ++i) {
    in.facts += "Products(" + pid(i) + ", " + kCategoryNames[category[i]] +
                ", brand" + std::to_string(rng.Below(kBrands)) + ")\n";
  }
  const int per_region = kCitiesPerRegion * kStoresPerCity;
  for (int s = 0; s < num_stores; ++s) {
    in.facts += "Stores(" + sid(s) + ", city" +
                std::to_string(s / kStoresPerCity) + ", " +
                kRegionNames[s / per_region] + ")\n";
  }
  std::vector<std::vector<int>> missing_stores(num_products);
  for (int p = 0; p < num_products; ++p) {
    for (int s = 0; s < num_stores; ++s) {
      if (blocked[category[p]][s / per_region] ||
          rng.Unit() < kRandomHoleRate) {
        missing_stores[p].push_back(s);
        continue;
      }
      in.facts += "Stock(" + pid(p) + ", " + sid(s) + ")\n";
    }
  }
  // Questions come grouped by product (products and stores in seeded
  // order): the first question about a product computes its lubs, the
  // other ~11 reuse them from the session's cache. A fully random order
  // would shift that mix from mostly-new to mostly-repeated products as a
  // run goes on, so how far a run got would move its median latency.
  std::vector<int> products(num_products);
  for (int p = 0; p < num_products; ++p) products[p] = p;
  rng.Shuffle(&products);
  std::vector<std::pair<int, int>> missing;
  for (int p : products) {
    rng.Shuffle(&missing_stores[p]);
    for (int s : missing_stores[p]) missing.emplace_back(p, s);
  }
  for (size_t i = 0; i < missing.size(); ++i) {
    std::string text =
        "(" + pid(missing[i].first) + ", " + sid(missing[i].second) + ")";
    if (split_for_appends && i % 2 == 1) {
      in.appended.push_back(std::move(text));
    } else {
      in.asked.push_back(std::move(text));
    }
  }
  return in;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kObdaTravel, Workload::kDerivedEnumerate,
                     Workload::kAppendWhyNot}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kObdaTravel:
      return "obda-travel";
    case Workload::kDerivedEnumerate:
      return "derived-enumerate";
    case Workload::kAppendWhyNot:
      return "append-whynot";
  }
  return "?";
}

TextInputs MakeInputs(Workload workload, uint64_t seed) {
  switch (workload) {
    case Workload::kObdaTravel:
      return MakeTravel(seed);
    case Workload::kDerivedEnumerate:
      return MakeRetail(seed, /*split_for_appends=*/false);
    case Workload::kAppendWhyNot:
      return MakeRetail(seed, /*split_for_appends=*/true);
  }
  return {};
}

}  // namespace e2e
