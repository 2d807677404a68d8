// kanon_gen — reproducible synthetic-table generator CLI.
//
// Emits the same tables the benchmarks build in-process
// (data/generators/synthetic.h) as CSV, so external tools and ad-hoc
// kanond sessions can run against identical inputs without the repo
// shipping data files. Fully deterministic from --seed.
//
//   kanon_gen --rows=1000000 --cols=8 --alphabets=8,4,16,2
//             --zipf=1.1 --seed=7 --out=table.csv
//
// With no --out the CSV goes to stdout (header line first).

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "data/csv_table.h"
#include "data/generators/synthetic.h"
#include "util/cli.h"

namespace kanon {
namespace {

/// Parses "8,4,16,2" into alphabet sizes; empty result on bad input.
std::vector<uint32_t> ParseAlphabets(const std::string& spec) {
  std::vector<uint32_t> sizes;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string piece =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    try {
      const long value = std::stol(piece);
      if (value < 1) return {};
      sizes.push_back(static_cast<uint32_t>(value));
    } catch (...) {
      return {};
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (!CheckKnownFlags(cl, "kanon_gen",
                       {"rows", "cols", "alphabets", "zipf", "seed", "out"})) {
    return 2;
  }

  SyntheticTableOptions options;
  const auto rows = cl.GetValidatedInt("rows", 1024, 1, 1LL << 32);
  const auto cols = cl.GetValidatedInt("cols", 8, 1, 1024);
  const auto seed = cl.GetValidatedInt("seed", 1, 0, (1LL << 62));
  if (!rows.ok() || !cols.ok() || !seed.ok()) {
    std::cerr << "kanon_gen: bad flag: "
              << (!rows.ok()   ? rows.status().message()
                  : !cols.ok() ? cols.status().message()
                               : seed.status().message())
              << "\n";
    return 2;
  }
  options.num_rows = static_cast<uint64_t>(*rows);
  options.num_columns = static_cast<uint32_t>(*cols);
  options.seed = static_cast<uint64_t>(*seed);
  options.zipf_s = cl.GetDouble("zipf", 0.0);
  if (options.zipf_s < 0.0) {
    std::cerr << "kanon_gen: --zipf must be >= 0\n";
    return 2;
  }
  const std::string alphabets = cl.GetString("alphabets", "8,4,16,2");
  options.alphabet_sizes = ParseAlphabets(alphabets);
  if (options.alphabet_sizes.empty()) {
    std::cerr << "kanon_gen: --alphabets must be a comma list of sizes "
                 ">= 1 (got '"
              << alphabets << "')\n";
    return 2;
  }

  const Table table = SyntheticTable(options);
  const std::string out = cl.GetString("out", "");
  if (out.empty()) {
    std::cout << TableToCsv(table);
    return 0;
  }
  const Status written = WriteTableCsv(table, out);
  if (!written.ok()) {
    std::cerr << "kanon_gen: " << written.message() << "\n";
    return 1;
  }
  std::cerr << "kanon_gen: wrote " << table.num_rows() << " rows x "
            << table.num_columns() << " cols to " << out << "\n";
  return 0;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
