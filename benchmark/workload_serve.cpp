// serve-mix: one serve::Server (3 workers × 1 OpenMP thread, queue of 64,
// unlimited registry, degradation off) under a seeded multi-tenant mix:
//
//   Normal       CGLS-20 fp32 on 144×96                       48%
//   Interactive  OS-SIRT, 4 sweeps × 8 subsets, 144×96, 1 s   30%
//   Bulk         CGLS-20 bf16 on 192×128                      20%
//   Cold         CGLS-20 fp32 on (100+i)×96, a new geometry    2%
//
// Every operator fits in the LLC, so queueing, the registry, OS subset
// views, the bf16 kernels, ingest and permutation matter more than the
// kernels. Cold requests put trace and build on the request path next to
// registry hits. The mix is drawn in shuffled blocks of 50 with exact
// shares, so a run's throughput does not depend on how many slow requests
// the seed happened to draw.
//
// Phases: warm-up (one request per tenant, timed as setup_s), a closed loop
// of 4 clients that each wait for their request before sending the next
// (throughput), then an open loop of Poisson arrivals at 10 req/s on a
// schedule drawn up front (latency, timed from each request's due time to
// its terminal state).
//
// Workers are single-threaded: a worker with no OpenMP team has no barrier
// at which one slow vCPU stalls the others, so on a VM whose cores are
// shared with other tenants runs drift less with the host's speed. Three of them keep the workers about a
// quarter busy at 10 req/s, so few requests queue and a slower host raises
// latency without tipping the queue into growth. The fourth core is left to
// the generator and the clients, which mostly wait.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "perf/timer.hpp"
#include "serve/server.hpp"

namespace memxct::bench {

namespace {

using Clock = std::chrono::steady_clock;

enum Tenant { kNormal = 0, kInteractive = 1, kBulk = 2, kCold = 3 };
constexpr int kTenants = 4;
const char* const kTenantNames[kTenants] = {"normal", "interactive", "bulk",
                                            "cold"};

struct ServeSpec {
  idx_t angles, channels;            ///< Normal / Interactive geometry.
  idx_t bulk_angles, bulk_channels;  ///< Bulk geometry.
  idx_t cold_angles;                 ///< Cold geometry i has cold_angles + i.
  int pool;                          ///< Distinct inputs per tenant.
  double rate;                       ///< Open-loop arrivals per second.
  Gate gate[kTenants];
};

ServeSpec spec_for(const Options& opt) {
  // Gates about 1 dB / 10% inside each tenant's worst request at each
  // size; the OS-SIRT residual is the solver's sweep proxy.
  if (opt.smoke)
    return {48, 32, 48, 32, 40, 4, 200.0,
            {{30.5, 0.0039}, {19.9, 0.080}, {30.6, 0.0042}, {30.5, 0.0039}}};
  return {144, 96, 192, 128, 100, 8, 10.0,
          {{31.0, 0.0040}, {20.9, 0.072}, {31.1, 0.0043}, {29.7, 0.0035}}};
}

core::Config tenant_config(int tenant) {
  core::Config c;
  c.iterations = 20;
  if (tenant == kInteractive) {
    c.solver = core::SolverKind::OsSirt;
    c.iterations = 4;
    c.num_subsets = 8;
  }
  if (tenant == kBulk) c.precision = sparse::ValueStorage::Bf16;
  return c;
}

serve::RequestOptions tenant_options(int tenant) {
  serve::RequestOptions o;
  o.keep_image = true;
  if (tenant == kInteractive) {
    o.priority = serve::Priority::Interactive;
    o.deadline_seconds = 1.0;
  } else if (tenant == kBulk) {
    o.priority = serve::Priority::Bulk;
  }
  return o;
}

serve::ServerOptions server_options() {
  serve::ServerOptions o;
  o.workers = 3;
  o.omp_threads_per_worker = 1;
  o.queue_capacity = 64;
  return o;  // registry unlimited, degradation off, no retries
}

/// Tenant sequence in shuffled blocks of 50: 24 Normal, 1 Cold,
/// 15 Interactive, 10 Bulk.
class Mix {
 public:
  static constexpr std::size_t kBlock = 50;
  explicit Mix(std::uint64_t seed) : rng_(seed) {}
  int next() {
    if (pos_ == block_.size()) refill();
    return block_[pos_++];
  }

 private:
  void refill() {
    block_.clear();
    block_.insert(block_.end(), 24, kNormal);
    block_.insert(block_.end(), 1, kCold);
    block_.insert(block_.end(), 15, kInteractive);
    block_.insert(block_.end(), 10, kBulk);
    for (std::size_t i = block_.size() - 1; i > 0; --i)
      std::swap(block_[i], block_[rng_.uniform_int(i + 1)]);
    pos_ = 0;
  }
  Rng rng_;
  std::vector<int> block_;
  std::size_t pos_ = 0;
};

struct Request {
  int tenant = kNormal;
  std::size_t input = 0;  ///< Pool index, or cold-slice index.
};

/// Inputs, gates and results of the whole run.
class Tenants {
 public:
  Tenants(const ServeSpec& spec, std::uint64_t seed, Record& rec)
      : spec_(spec),
        seed_(seed),
        main_(geometry::make_geometry(spec.angles, spec.channels)),
        bulk_(geometry::make_geometry(spec.bulk_angles, spec.bulk_channels)),
        main_pool_(make_slices(main_, spec.pool, derive_seed(seed, 1))),
        bulk_pool_(make_slices(bulk_, spec.pool, derive_seed(seed, 2))),
        record_(&rec) {
    checkers_.push_back(
        std::make_unique<SliceChecker>(main_pool_, spec.gate[kNormal], rec));
    checkers_.push_back(std::make_unique<SliceChecker>(
        main_pool_, spec.gate[kInteractive], rec));
    checkers_.push_back(
        std::make_unique<SliceChecker>(bulk_pool_, spec.gate[kBulk], rec));
  }
  // The checkers refer to the pools above.
  Tenants(const Tenants&) = delete;
  Tenants& operator=(const Tenants&) = delete;

  /// The next `count` requests of `mix`, with cold inputs generated now.
  std::vector<Request> draw(Mix& mix, std::size_t count) {
    std::vector<Request> out(count);
    for (Request& r : out) {
      r.tenant = mix.next();
      if (r.tenant == kCold) {
        const std::size_t i = cold_geometry_.size();
        cold_geometry_.push_back(geometry::make_geometry(
            spec_.cold_angles + static_cast<idx_t>(i), spec_.channels));
        const Slice& base = main_pool_[i % main_pool_.size()];
        cold_pool_.push_back(make_slice(cold_geometry_.back(), base.phantom,
                                        derive_seed(seed_, 1000 + i)));
        r.input = i;
      } else {
        r.input = next_input_[r.tenant]++ % static_cast<std::size_t>(spec_.pool);
      }
    }
    return out;
  }

  [[nodiscard]] const geometry::Geometry& geometry(const Request& r) const {
    if (r.tenant == kCold) return cold_geometry_[r.input];
    return r.tenant == kBulk ? bulk_ : main_;
  }
  [[nodiscard]] const Slice& slice(const Request& r) const {
    if (r.tenant == kCold) return cold_pool_[r.input];
    return r.tenant == kBulk ? bulk_pool_[r.input] : main_pool_[r.input];
  }

  /// Admission; a rejection counts as a failed request (returns -1).
  std::int64_t submit(serve::Server& server, const Request& r) {
    try {
      return server.submit(geometry(r), tenant_config(r.tenant),
                           slice(r).sinogram, tenant_options(r.tenant));
    } catch (const std::exception& e) {
      record_->item(std::string(kTenantNames[r.tenant]) + " rejected: " +
                    e.what());
      return -1;
    }
  }

  /// Gates one terminal result: status Ok, the quality gate on the first
  /// result per input, bitwise equality with it afterwards.
  void check(const Request& r, const serve::RequestResult& res) {
    if (res.status != serve::RequestStatus::Ok) {
      record_->item(std::string(kTenantNames[r.tenant]) + " finished " +
                    serve::to_string(res.status) + ": " + res.error);
      return;
    }
    if (r.tenant == kCold) {
      const Quality q = check_quality(spec_.gate[kCold], res.image,
                                      cold_pool_[r.input], res.solve);
      record_->item(q.problem);
      cold_psnr_min_ = std::min(cold_psnr_min_, q.psnr_db);
      cold_residual_max_ = std::max(cold_residual_max_, q.residual);
      return;
    }
    checkers_[static_cast<std::size_t>(r.tenant)]->check(r.input, res.image,
                                                        res.solve);
  }

  /// Mean over the three fixed tenants of each tenant's mean PSNR, so the
  /// value does not move with the share of each tenant in a run.
  [[nodiscard]] double psnr() const {
    double sum = 0.0;
    for (const auto& c : checkers_) sum += c->mean_psnr();
    return sum / static_cast<double>(checkers_.size());
  }

  /// The gates' margins per tenant (see SliceChecker::add_margins).
  void add_margins(Record& rec) const {
    for (int i = 0; i < kTenants - 1; ++i)
      checkers_[static_cast<std::size_t>(i)]->add_margins(
          rec, std::string("quality.") + kTenantNames[i] + ".");
    rec.add("quality.cold.psnr_min_db", cold_psnr_min_, "dB");
    rec.add("quality.cold.residual_max", cold_residual_max_, "ratio");
  }

  [[nodiscard]] const ServeSpec& spec() const { return spec_; }
  [[nodiscard]] const geometry::Geometry& main_geometry() const {
    return main_;
  }
  [[nodiscard]] const std::vector<Slice>& main_pool() const {
    return main_pool_;
  }

 private:
  ServeSpec spec_;
  std::uint64_t seed_;
  geometry::Geometry main_, bulk_;
  std::vector<Slice> main_pool_, bulk_pool_;
  Record* record_;
  /// Cold requests each get a fresh geometry; draw() generates them before
  /// any timer starts. Every cold result is checked against the gate.
  std::vector<Slice> cold_pool_;
  std::vector<geometry::Geometry> cold_geometry_;
  std::size_t next_input_[kTenants] = {};
  std::vector<std::unique_ptr<SliceChecker>> checkers_;
  double cold_psnr_min_ = 1e300;
  double cold_residual_max_ = 0.0;
};

/// One finished request of the measured phases.
struct Done {
  Request request;
  serve::RequestResult result;
  Clock::time_point submitted;
};

/// Warm-up: one request per fixed tenant, submitted together.
void warm_up(serve::Server& server, Tenants& t) {
  const Request reqs[] = {{kNormal, 0}, {kInteractive, 0}, {kBulk, 0}};
  std::vector<std::int64_t> ids;
  for (const Request& r : reqs) ids.push_back(t.submit(server, r));
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (ids[i] >= 0) t.check(reqs[i], server.wait(ids[i]));
}

/// Closed loop: `clients` threads each take the next request of `reqs`,
/// submit it and wait for it before taking another. Returns requests per
/// second while every client had a request in flight: from the start to
/// the moment the last request was taken, so the drain, when fewer
/// requests are in flight and one long request can run alone, is not
/// counted.
double closed_loop(serve::Server& server, Tenants& t,
                   const std::vector<Request>& reqs, int clients,
                   std::vector<Done>& done) {
  std::mutex mu;  // guards everything below and t's record
  std::size_t next = 0;
  Clock::time_point drained{};
  std::vector<Clock::time_point> finished;
  std::exception_ptr error;
  const Clock::time_point start = Clock::now();
  const auto client = [&] {
    try {
      for (;;) {
        Done d;
        std::int64_t id = -1;
        {
          const std::lock_guard<std::mutex> lock(mu);
          if (next == reqs.size() || error) return;
          d.request = reqs[next++];
          d.submitted = Clock::now();
          if (next == reqs.size()) drained = d.submitted;
          id = t.submit(server, d.request);
        }
        if (id < 0) continue;
        d.result = server.wait(id);
        const std::lock_guard<std::mutex> lock(mu);
        finished.push_back(Clock::now());
        done.push_back(std::move(d));
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) threads.emplace_back(client);
  for (std::thread& th : threads) th.join();
  if (error) std::rethrow_exception(error);
  const auto in_window = std::count_if(
      finished.begin(), finished.end(),
      [&](Clock::time_point f) { return f <= drained; });
  return static_cast<double>(in_window) /
         std::chrono::duration<double>(drained - start).count();
}

/// Open loop: submits reqs[i] at due[i] (seconds after start) regardless of
/// completions. Fills latency (due → terminal) and generator lag.
void open_loop(serve::Server& server, Tenants& t,
               const std::vector<Request>& reqs,
               const std::vector<double>& due, std::vector<Done>& done,
               std::vector<double>& latency, std::vector<double>& lag) {
  std::vector<std::int64_t> ids(reqs.size(), -1);
  std::vector<Clock::time_point> due_at(reqs.size()), submitted(reqs.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    due_at[i] = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(due_at[i]);
    submitted[i] = Clock::now();
    ids[i] = t.submit(server, reqs[i]);
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (ids[i] < 0) continue;
    Done d{reqs[i], server.wait(ids[i]), submitted[i]};
    const double late =
        std::chrono::duration<double>(submitted[i] - due_at[i]).count();
    lag.push_back(late);
    latency.push_back(late + d.result.total_seconds);
    done.push_back(std::move(d));
  }
}

/// Keep-image probe per tenant against core::Reconstructor::reconstruct.
void probe_parity(serve::Server& server, Tenants& t, Mix& mix, Record& rec) {
  std::vector<Request> probes = {{kNormal, 1}, {kInteractive, 1}, {kBulk, 1}};
  // One cold probe: a geometry the server has never built.
  for (;;) {
    const std::vector<Request> r = t.draw(mix, 1);
    if (r[0].tenant == kCold) {
      probes.push_back(r[0]);
      break;
    }
  }
  for (const Request& r : probes) {
    const std::int64_t id = t.submit(server, r);
    if (id < 0) continue;
    const serve::RequestResult res = server.wait(id);
    const core::Reconstructor recon(t.geometry(r), tenant_config(r.tenant));
    const core::ReconstructionResult ref = recon.reconstruct(t.slice(r).sinogram);
    const bool same = res.status == serve::RequestStatus::Ok &&
                      res.image.size() == ref.image.size() &&
                      std::memcmp(res.image.data(), ref.image.data(),
                                  ref.image.size() * sizeof(real)) == 0;
    rec.item(same ? "" : std::string(kTenantNames[r.tenant]) +
                             " probe differs from Reconstructor::reconstruct");
  }
}

struct Phases {
  double rps = 0.0;
  std::vector<Done> done;  ///< Closed and open loop, in completion order.
  std::vector<double> latency, lag;
};

/// A closed loop of two mix blocks, then an open loop of about `seconds`
/// of arrivals, on a warmed-up server. Both loops run whole mix blocks, so
/// every run has the same tenant shares and the same number of cold builds;
/// cold inputs for every request are generated here, before any timer
/// starts.
Phases run_phases(serve::Server& server, Tenants& t, Mix& mix,
                  std::uint64_t seed, double seconds) {
  // Two blocks take about 5 s closed-loop on the reference host. The open
  // loop keeps at least two blocks, the 100 requests the tail percentile
  // needs: a tenth of them lie beyond the p90.
  constexpr std::size_t kClosedBlocks = 2;
  constexpr std::size_t kMinOpenBlocks = 2;
  static_assert(kMinOpenBlocks * Mix::kBlock / 10 >= kSamplesBeyond);
  const std::size_t closed_requests = Mix::kBlock * kClosedBlocks;
  const auto open_blocks = static_cast<std::size_t>(
      std::round(t.spec().rate * seconds / Mix::kBlock));
  const std::size_t arrivals =
      Mix::kBlock * std::max(kMinOpenBlocks, open_blocks);
  Phases p;
  const std::vector<Request> closed = t.draw(mix, closed_requests);
  const std::vector<Request> open = t.draw(mix, arrivals);
  std::vector<double> due(arrivals);
  Rng rng(derive_seed(seed, 3));
  double at = 0.0;
  for (double& d : due) {
    at += -std::log(1.0 - rng.uniform()) / t.spec().rate;
    d = at;
  }

  p.rps = closed_loop(server, t, closed, 4, p.done);
  open_loop(server, t, open, due, p.done, p.latency, p.lag);
  for (const Done& d : p.done) t.check(d.request, d.result);
  return p;
}

/// Layer numbers read from the requests' own records and the snapshot.
void add_serve_layers(Record& rec, const serve::Server& server,
                      const Phases& p) {
  std::vector<double> queue, solve, sweeps;
  double setup_sum = 0.0;
  for (const Done& d : p.done) {
    queue.push_back(d.result.queue_seconds);
    solve.push_back(d.result.solve.seconds);
    setup_sum += d.result.setup_seconds;
    if (d.request.tenant == kInteractive)
      sweeps.push_back(d.result.solve.iterations);
  }
  const auto n = static_cast<std::int64_t>(queue.size());
  rec.add("serve.queue_s_p50", median(queue), "s", n);
  rec.add_quantile("serve.queue_s_p90", queue, kTailQuantile, "s");
  rec.add("serve.solve_s_p50", median(solve), "s", n);
  rec.add("serve.setup_s_sum", setup_sum, "s", n);
  const serve::ServerMetrics m = server.snapshot();
  rec.add("serve.registry_hit_rate", m.registry.hit_rate(), "ratio",
          m.registry.hits + m.registry.misses);
  rec.add("serve.registry_builds", static_cast<double>(m.registry.builds),
          "count");
  rec.add("serve.queue_high_water", m.queue_high_water, "count");
  rec.add("solve.os_sweeps", median(sweeps), "count",
          static_cast<std::int64_t>(sweeps.size()));
  rec.add_quantile("serve.gen_lag_s_p90", p.lag, kTailQuantile, "s");
  // A late generator delays arrivals and understates latency: the run is
  // invalid beyond 5 ms.
  if (!p.lag.empty() && quantile(p.lag, kTailQuantile) > 5e-3)
    rec.error("open-loop generator ran more than 5 ms late at p90");
}

void untraced(const Options& opt, Tenants& t, Record& rec) {
  const auto make = [&] {
    auto server = std::make_unique<serve::Server>(server_options());
    warm_up(*server, t);
    return server;
  };
  perf::WallTimer first_setup;
  std::unique_ptr<serve::Server> server = make();
  std::vector<double> setup = {first_setup.seconds()};

  Mix mix(derive_seed(opt.seed, 4));
  const Phases p = run_phases(*server, t, mix, opt.seed, opt.seconds);
  const double rss = peak_rss_mib();
  add_serve_layers(rec, *server, p);
  probe_parity(*server, t, mix, rec);
  server.reset();
  repeat_setup(setup, make);

  const auto n = static_cast<std::int64_t>(p.latency.size());
  rec.add("setup_s", median(setup), "s", kSetupRepeats);
  rec.add("latency_p50_s", median(p.latency), "s", n);
  rec.add_quantile("serve.latency_p90_s", p.latency, kTailQuantile, "s");
  rec.add("throughput_per_s", p.rps, "1/s");
  rec.add("psnr_db", t.psnr(), "dB");
  rec.add("peak_rss_mib", rss, "MiB");
  t.add_margins(rec);
}

void traced(const Options& opt, Tenants& t, Record& rec) {
  const HostCeiling host = measure_host(opt.smoke);
  Tracer tracer;
  serve::Server server(server_options());
  warm_up(server, t);
  Mix mix(derive_seed(opt.seed, 4));
  const Phases p = run_phases(server, t, mix, opt.seed, 0.5 * opt.seconds);
  add_serve_layers(rec, server, p);
  probe_parity(server, t, mix, rec);

  // The layers re-composed on the Normal tenant's geometry and config.
  const core::Config config = tenant_config(kNormal);
  SliceChecker checker(t.main_pool(), t.spec().gate[kNormal], rec);
  reference_images(t.main_geometry(), config, t.main_pool(), checker);
  const Composed c = compose(t.main_geometry(), config, tracer);
  const std::vector<double> untraced_s =
      alternate_slices(0.5 * opt.seconds, t.main_geometry(), config, c,
                       t.main_pool(), checker, tracer);
  add_layer_metrics(rec, tracer, host, c, 1, "slice", untraced_s);
  rec.add("psnr_db", t.psnr(), "dB");

  // Each served request on its own lane of the timeline: time queued, then
  // time to its terminal state.
  const auto at = [](Clock::time_point t0, double seconds) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  };
  for (std::size_t i = 0; i < p.done.size(); ++i) {
    const Done& d = p.done[i];
    const auto queued = at(d.submitted, d.result.queue_seconds);
    const int lane = 1000 + static_cast<int>(i);
    tracer.add("serve.queue", d.submitted, queued, lane);
    tracer.add("serve.run", queued, at(d.submitted, d.result.total_seconds),
               lane);
  }
  tracer.write_chrome(opt.trace_path);
}

}  // namespace

void run_serve(const Options& opt, Record& rec) {
  Tenants t(spec_for(opt), opt.seed, rec);
  if (opt.traced())
    traced(opt, t, rec);
  else
    untraced(opt, t, rec);
}

}  // namespace memxct::bench
