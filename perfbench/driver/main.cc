/**
 * @file
 * persim_perfbench: runs one benchmark workload for a fixed time and
 * prints its metrics as one JSON line.
 *
 *   persim_perfbench --workload kv_service --seed 1 --seconds 30 \
 *       --trace 0 [--size full|tiny] [--golden PATH] [--trace-out PATH]
 *
 * A run sets the workload up, runs one checked warm-up batch with the
 * output checks inline, then repeats untimed-check batches until
 * --seconds have passed, with a round of 100 thrown-away set-ups
 * before the warm-up and after each batch (setup_s is the median of
 * all set-ups). Every batch must reproduce the warm-up batch's
 * checked-output digest; attempted and failed count the warm-up
 * batch. Batch times are reported by their lower quartile over the
 * run.
 * With --trace 1 the run alternates untraced and traced batches and
 * reports per-layer metrics from the traced ones. Exit status: 0 when
 * every check held, 1 when one failed, 2 on bad usage or an error.
 */

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "harness.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    std::string golden = "tests/conformance/golden/conformance_report.txt";
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "persim_perfbench: " << problem << "\n"
              << "usage: persim_perfbench --workload "
                 "kv_service|fig_sweep|crash_check --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--golden PATH] "
                 "[--trace-out PATH]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("missing value for " + key);
        }
        try {
            if (key == "--workload")
                args.workload = value;
            else if (key == "--seed")
                args.seed = std::stoull(value);
            else if (key == "--seconds")
                args.seconds = std::stod(value);
            else if (key == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (key == "--size" && (value == "full" || value == "tiny"))
                args.size = value == "tiny" ? Size::Tiny : Size::Full;
            else if (key == "--golden")
                args.golden = value;
            else if (key == "--trace-out")
                args.trace_out = value;
            else
                usage("unknown option " + key + "=" + value);
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

/**
 * Lower quartile, interpolated between order statistics. Batch times
 * of a run use it: a host stall only ever adds time, and one that
 * covers part of a run lifts its slower batches, not this quartile.
 */
double
lowerQuartile(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double at = 0.25 * static_cast<double>(values.size() - 1);
    const std::size_t low = static_cast<std::size_t>(at);
    if (low + 1 >= values.size())
        return values[low];
    return values[low] +
           (values[low + 1] - values[low]) * (at - static_cast<double>(low));
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/** One finished batch. */
struct BatchOutcome
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double work = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    std::map<std::string, double> counters;
    std::vector<SpanRecord> spans;
};

/**
 * Self time per span kind ("layer:kind"): each span's duration minus
 * the union of its children's intervals.
 */
std::map<std::string, double>
selfSeconds(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(
                i);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &span = spans[i];
        std::vector<std::pair<double, double>> covered;
        for (const std::size_t c : children[i])
            covered.emplace_back(std::max(spans[c].start, span.start),
                                 std::min(spans[c].end, span.end));
        std::sort(covered.begin(), covered.end());
        double covered_s = 0.0, reach = span.start;
        for (const auto &[start, end] : covered) {
            const double from = std::max(start, reach);
            if (end > from) {
                covered_s += end - from;
                reach = end;
            }
        }
        const std::size_t slash = span.name.find('/');
        self[span.name.substr(0, slash)] +=
            std::max(0.0, span.end - span.start - covered_s);
    }
    return self;
}

/** Sum of self seconds over kinds whose name starts with @p prefix. */
double
selfOf(const std::map<std::string, double> &self,
       const std::string &prefix)
{
    double total = 0.0;
    for (const auto &[kind, seconds] : self)
        if (kind.rfind(prefix, 0) == 0)
            total += seconds;
    return total;
}

/** Per-layer metrics of one traced batch. */
std::map<std::string, double>
layerMetrics(const BatchOutcome &batch)
{
    const std::map<std::string, double> self = selfSeconds(batch.spans);
    const auto count = [&batch](const std::string &name) {
        const auto it = batch.counters.find(name);
        return it == batch.counters.end() ? 0.0 : it->second;
    };
    std::map<std::string, double> m;

    const double st_events = count("sim.st_events");
    const double mt_events = count("sim.mt_events");
    m["sim.busy_s"] = selfOf(self, "sim:");
    m["sim.events"] = st_events + mt_events;
    m["sim.events_per_s"] = ratio(st_events + mt_events, m["sim.busy_s"]);
    m["sim.st_events_per_s"] = ratio(st_events, selfOf(self, "sim:st"));
    m["sim.mt_events_per_s"] = ratio(mt_events, selfOf(self, "sim:mt"));

    m["kvstore.ops"] = count("kvstore.ops");
    m["kvstore.rejected"] = count("kvstore.rejected");
    m["kvstore.txns_committed"] = count("kvstore.txns_committed");
    m["kvstore.txn_commit_ratio"] =
        ratio(count("kvstore.txns_committed"), count("kvstore.txns"));
    m["kvstore.migrations"] = count("kvstore.migrations");
    m["kvstore.snapshots"] = count("kvstore.snapshots");

    m["pool.utilization"] =
        ratio(count("pool.busy_s"), count("pool.capacity_s"));

    m["persistency.busy_s"] = selfOf(self, "persistency:");
    m["persistency.events"] = count("persistency.events");
    m["persistency.events_per_s"] =
        ratio(count("persistency.events"), m["persistency.busy_s"]);
    m["persistency.px86_busy_s"] =
        selfOf(self, "persistency:px86") +
        selfOf(self, "persistency:sweep") *
            ratio(count("persistency.px86_point_s"),
                  count("persistency.sweep_point_s"));
    m["persistency.persists"] = count("persistency.persists");
    m["persistency.coalesced_ratio"] =
        ratio(count("persistency.coalesced"), count("persistency.persists"));

    const double recovery_s = selfOf(self, "recovery:");
    m["recovery.busy_share"] = ratio(recovery_s, batch.wall_s);
    m["recovery.crash_states"] = count("recovery.crash_states");
    m["recovery.crash_states_per_s"] =
        ratio(count("recovery.crash_states"), recovery_s);
    m["recovery.violations"] = count("recovery.violations");
    m["recovery.detected"] = count("recovery.detected");
    m["recovery.quarantined"] = count("recovery.quarantined");
    m["recovery.repaired"] = count("recovery.repaired");
    m["recovery.in_doubt"] = count("recovery.in_doubt");

    const double explore_s = selfOf(self, "explore:");
    m["explore.busy_share"] = ratio(explore_s, batch.wall_s);
    m["explore.executions"] = count("explore.executions");
    m["explore.executions_per_s"] =
        ratio(count("explore.executions"), explore_s);
    m["explore.distinct_ratio"] =
        ratio(count("explore.distinct"), count("explore.executions"));
    m["explore.crash_states"] = count("explore.crash_states");

    m["conformance.busy_share"] =
        ratio(selfOf(self, "conformance:"), batch.wall_s);
    m["conformance.schedules"] = count("conformance.schedules");
    m["conformance.states"] = count("conformance.states");
    return m;
}

/** The end-to-end rates named per workload, from untraced batches. */
void
namedRates(std::map<std::string, double> &m, const BatchOutcome &batch,
           double wall_s)
{
    const auto count = [&batch](const std::string &name) {
        const auto it = batch.counters.find(name);
        return it == batch.counters.end() ? 0.0 : it->second;
    };
    m["kv_ops_per_s"] = ratio(count("kvstore.ops"), wall_s);
    m["analyses_per_s"] = ratio(count("persistency.analyses"), wall_s);
    m["crash_states_per_s"] =
        ratio(count("recovery.crash_states") +
                  count("explore.crash_states") +
                  count("conformance.states"),
              wall_s);
}

const std::map<std::string, std::string> &
units()
{
    static const std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> u{
            {"setup_s", "s"},          {"wall_s", "s"},
            {"cpu_s", "s"},            {"peak_rss_mb", "MB"},
            {"ok_share", "ratio"},     {"work_per_s", "1/s"},
            {"sim.busy_s", "s"},       {"persistency.busy_s", "s"},
            {"persistency.px86_busy_s", "s"},
            {"trace.overhead_ratio", "ratio"},
        };
        for (const char *name :
             {"sim.events", "kvstore.ops", "kvstore.rejected",
              "kvstore.txns_committed", "kvstore.migrations",
              "kvstore.snapshots", "persistency.events",
              "persistency.persists", "recovery.crash_states",
              "recovery.violations", "recovery.detected",
              "recovery.quarantined", "recovery.repaired",
              "recovery.in_doubt", "explore.executions",
              "explore.crash_states", "conformance.schedules",
              "conformance.states"})
            u[name] = "count";
        for (const char *name :
             {"sim.events_per_s", "sim.st_events_per_s",
              "sim.mt_events_per_s", "persistency.events_per_s",
              "recovery.crash_states_per_s", "explore.executions_per_s",
              "kv_ops_per_s", "analyses_per_s", "crash_states_per_s"})
            u[name] = "1/s";
        for (const char *name :
             {"kvstore.txn_commit_ratio", "pool.utilization",
              "persistency.coalesced_ratio", "recovery.busy_share",
              "explore.busy_share", "explore.distinct_ratio",
              "conformance.busy_share"})
            u[name] = "ratio";
        return u;
    }();
    return table;
}

void
writeTrace(const std::string &path, const std::vector<BatchOutcome> &runs)
{
    std::ofstream out(path);
    PERSIM_REQUIRE(out.good(), "cannot write trace " + path);
    out << "{\"traceEvents\":[";
    bool first = true;
    char line[512];
    for (std::size_t b = 0; b < runs.size(); ++b) {
        for (std::size_t i = 0; i < runs[b].spans.size(); ++i) {
            const SpanRecord &span = runs[b].spans[i];
            std::snprintf(line, sizeof(line),
                          "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}",
                          first ? "" : ",", span.name.c_str(),
                          span.name.substr(0, span.name.find(':')).c_str(),
                          span.start * 1e6, (span.end - span.start) * 1e6,
                          b, i, span.parent);
            out << line;
            first = false;
        }
    }
    out << "\n]}\n";
    PERSIM_REQUIRE(out.good(), "short write to trace " + path);
}

int
runBenchmark(const Args &args)
{
    WorkloadParams params;
    params.seed = args.seed;
    params.size = args.size;
    params.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    params.golden_path = args.golden;

#ifdef __GLIBC__
    // One malloc arena per pool worker. By default glibc opens up to 8
    // per CPU for the run's many short-lived engine and pool threads,
    // each keeping what was freed into it, and peak_rss_mb then moved
    // by 15% from seed to seed with which arenas the threads drew.
    mallopt(M_ARENA_MAX, static_cast<int>(params.jobs));
#endif

    std::unique_ptr<Workload> (*factory)(const WorkloadParams &) = nullptr;
    if (args.workload == "kv_service")
        factory = makeKvService;
    else if (args.workload == "fig_sweep")
        factory = makeFigSweep;
    else if (args.workload == "crash_check")
        factory = makeCrashCheck;
    else
        usage("unknown workload " + args.workload);

    // Set-up: pool start-up plus every config and input. One set-up
    // takes tens of microseconds, mostly thread start-up, whose time
    // the host scatters; setup_s is the median of many, taken in rounds
    // between the batches so that they sample the whole run and not
    // only its first milliseconds. The first set-up is the one that
    // runs; the others are thrown away.
    std::vector<double> setups;
    std::unique_ptr<persim::TaskPool> pool;
    std::unique_ptr<Workload> workload;
    const auto setUp = [&](std::unique_ptr<persim::TaskPool> &into_pool,
                           std::unique_ptr<Workload> &into_workload) {
        const Clock::time_point start = Clock::now();
        into_pool = std::make_unique<persim::TaskPool>(params.jobs);
        into_workload = factory(params);
        setups.push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
    };
    const int setup_round = 100;
    const auto setUpRound = [&] {
        for (int rep = 0; rep < setup_round; ++rep) {
            std::unique_ptr<persim::TaskPool> spare_pool;
            std::unique_ptr<Workload> spare_workload;
            setUp(spare_pool, spare_workload);
        }
    };
    setUp(pool, workload);
    setUpRound();

    Tracer tracer;
    Checks checks(args.workload);
    const auto runBatch = [&](bool traced, bool checked) {
        Counters counters;
        Digest digest;
        Batch batch{tracer, counters, digest, *pool};
        batch.checks = checked ? &checks : nullptr;
        tracer.setEnabled(traced);
        const double cpu_start = cpuSeconds();
        const Clock::time_point start = Clock::now();
        {
            Span root(tracer, "bench:batch/" + args.workload, -1);
            workload->run(batch);
        }
        BatchOutcome outcome;
        outcome.wall_s =
            std::chrono::duration<double>(Clock::now() - start).count();
        outcome.cpu_s = cpuSeconds() - cpu_start;
        tracer.setEnabled(false);
        outcome.work = batch.work;
        outcome.attempted = batch.attempted;
        outcome.failed = batch.failed;
        outcome.digest = digest.value();
        outcome.counters = counters.snapshot();
        outcome.spans = tracer.take();
        return outcome;
    };

    // Checked warm-up batch: output checks inline, not timed. Peak
    // memory is taken here, from a fresh process: later batches start
    // on allocator state the earlier ones left, which makes their peak
    // drift from run to run.
    const BatchOutcome warm = runBatch(false, true);
    const double warm_rss_mb = peakRssMb();
    // Operations are counted over the checked batch, which every later
    // batch repeats (the digest check holds it): the counts then depend
    // on the seed alone, not on how many batches the host fitted in.
    const std::uint64_t attempted = warm.attempted, failed = warm.failed;

    std::vector<BatchOutcome> plain, traced;
    const Clock::time_point measure_start = Clock::now();
    const std::size_t min_each =
        args.size == Size::Tiny ? 1 : args.trace ? 2 : 3;
    for (std::size_t i = 0;; ++i) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - measure_start)
                .count();
        const bool enough = plain.size() >= min_each &&
                            (!args.trace || traced.size() >= min_each);
        if (enough && elapsed >= args.seconds)
            break;
        const bool trace_this = args.trace && i % 2 == 1;
        BatchOutcome outcome = runBatch(trace_this, false);
        checks.expect(outcome.digest == warm.digest, "deterministic",
                      "batch " + std::to_string(i + 1) +
                          " checked outputs differ from the warm-up "
                          "batch");
        (trace_this ? traced : plain).push_back(std::move(outcome));
        setUpRound();
    }

    std::vector<double> walls, cpus;
    for (const BatchOutcome &batch : plain) {
        walls.push_back(batch.wall_s);
        cpus.push_back(batch.cpu_s);
    }
    const double wall_s = lowerQuartile(walls);
    std::map<std::string, double> metrics;
    if (!args.trace) {
        metrics["setup_s"] = median(setups);
        metrics["wall_s"] = wall_s;
        metrics["cpu_s"] = lowerQuartile(cpus);
        metrics["peak_rss_mb"] = warm_rss_mb;
        metrics["ok_share"] =
            1.0 - ratio(static_cast<double>(failed),
                        static_cast<double>(attempted));
        // Every batch does the same work (the digest check holds it).
        metrics["work_per_s"] = ratio(warm.work, wall_s);
    } else {
        std::map<std::string, std::vector<double>> samples, self;
        std::vector<double> traced_walls;
        for (const BatchOutcome &batch : traced) {
            traced_walls.push_back(batch.wall_s);
            for (const auto &[name, value] : layerMetrics(batch))
                samples[name].push_back(value);
            for (const auto &[kind, seconds] : selfSeconds(batch.spans))
                self[kind].push_back(seconds);
        }
        std::printf("self time per span kind (median over traced "
                    "batches, share of the traced batch wall):\n");
        for (const auto &[kind, values] : self)
            std::printf("  %-28s %10.4f s  %6.3f\n", kind.c_str(),
                        median(values),
                        ratio(median(values), median(traced_walls)));
        for (const auto &[name, values] : samples)
            metrics[name] = median(values);
        const double traced_wall_s = lowerQuartile(traced_walls);
        namedRates(metrics, plain.front(), wall_s);
        metrics["trace.overhead_ratio"] = ratio(traced_wall_s, wall_s);
        std::printf("tracing overhead: traced wall %.6f s - untraced "
                    "wall %.6f s = %.6f s\n",
                    traced_wall_s, wall_s, traced_wall_s - wall_s);
        if (!args.trace_out.empty())
            writeTrace(args.trace_out, traced);
    }

    std::printf("workload %s seed %llu: %zu untraced + %zu traced "
                "batches after 1 checked warm-up, %zu set-ups\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                traced.size(), setups.size());
    std::printf("set-up (s): min %.9f, lower quartile %.9f, median "
                "%.9f\n",
                *std::min_element(setups.begin(), setups.end()),
                lowerQuartile(setups), median(setups));
    std::printf("untraced batch walls (s):");
    for (const double wall : walls)
        std::printf(" %.4f", wall);
    std::printf("\ndigest: %016llx\n",
                static_cast<unsigned long long>(warm.digest));
    for (const auto &[name, number] : warm.counters)
        std::printf("  %-28s %.17g\n", name.c_str(), number);
    for (const std::string &note : checks.notes())
        std::printf("NOTE: %s\n", note.c_str());
    for (const std::string &failure : checks.failures())
        std::printf("CHECK FAILED: %s\n", failure.c_str());

    const bool correct = checks.failures().empty();
    std::string json = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    bool first = true;
    char value[64];
    for (const auto &[name, number] : metrics) {
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(number) ? number : -1.0);
        json += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                units().at(name) + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return runBenchmark(args);
    } catch (const std::exception &error) {
        std::cerr << "persim_perfbench: error: " << error.what() << "\n";
        return 2;
    }
}
