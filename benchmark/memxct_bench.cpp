// memxct_bench — the repository's end-to-end and per-layer benchmark.
//
//   memxct_bench --workload <name> --seed <s> [--seconds <t>]
//                [--trace <trace.json>] [--json <result.json>]
//   memxct_bench --smoke [--json <result.json>]
//
// Workloads: recon-large, stack-k8, shard-p4, serve-mix (README.md says why
// each exists). Inputs are generated from --seed before any timer starts.
// Without --trace the run measures the end-to-end metrics; with --trace it
// re-composes the pipeline from the layers' public functions, times each
// call as a span, reports the per-layer metrics and writes the spans as a
// Chrome trace-event file. Every metric is printed by name with its unit;
// --json writes the same record. The exit code is non-zero when any
// correctness gate failed.
//
// --smoke runs every workload untraced and traced at tiny sizes.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

using namespace memxct::bench;

const char* const kWorkloads[] = {"recon-large", "stack-k8", "shard-p4",
                                  "serve-mix"};

int usage() {
  std::fprintf(stderr,
               "usage: memxct_bench --workload <recon-large|stack-k8|shard-p4|"
               "serve-mix> --seed <s> [--seconds <t>] [--trace <file>] "
               "[--json <file>]\n"
               "       memxct_bench --smoke [--json <file>]\n");
  return 2;
}

Record run(const Options& opt) {
  Record rec;
  rec.workload = opt.workload;
  rec.seed = opt.seed;
  rec.traced = opt.traced();
  try {
    if (opt.workload == "stack-k8")
      run_stack(opt, rec);
    else if (opt.workload == "serve-mix")
      run_serve(opt, rec);
    else
      run_slices(opt, rec);
  } catch (const std::exception& e) {
    rec.error(std::string("aborted: ") + e.what());
  }
  rec.print();
  std::fflush(stdout);
  return rec;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "memxct_bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(text.c_str(), f);
  std::fputc('\n', f);
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string json_path;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      seeded = true;
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace_path = argv[++i];
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else {
      return usage();
    }
  }

  if (opt.smoke) {
    opt.seconds = 0.5;
    const std::string base = json_path.empty() ? "smoke" : json_path;
    std::string json = "{\"smoke\": true, \"records\": [";
    bool ok = true;
    for (const char* w : kWorkloads) {
      for (const bool traced : {false, true}) {
        opt.workload = w;
        opt.trace_path = traced ? base + "." + w + ".trace.json" : "";
        const Record rec = run(opt);
        ok = ok && rec.correct();
        json += (json.back() == '[' ? "" : ", ") + rec.json();
      }
    }
    json += "]}";
    if (!json_path.empty() && !write_file(json_path, json)) return 1;
    return ok ? 0 : 1;
  }

  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known || !seeded || !(opt.seconds > 0.0)) return usage();
  const Record rec = run(opt);
  if (!json_path.empty() && !write_file(json_path, rec.json())) return 1;
  return rec.correct() ? 0 : 1;
}
