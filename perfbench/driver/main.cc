/**
 * @file
 * ramp_perfbench: the RAMP benchmark driver.
 *
 *   ramp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out DIR]
 *   ramp_perfbench --selftest
 *
 * Runs rounds of one workload (workloads.hh) on a pool of nproc
 * workers, at most 4: one warm-up round (checked,
 * not timed into the metrics), then rounds until about --seconds
 * have passed and at least three untraced rounds are in. With --trace 1
 * the untraced rounds alternate with traced ones (at least two), and
 * the layer budget replays the workload's stream afterwards.
 *
 * Stdout carries a `host` stamp line, a `sim_digest` line and, last,
 * one JSON result line; --trace 0 reports the end-to-end metrics,
 * --trace 1 the per-layer ones. The result is correct when no pass
 * failed a check and every round produced the same digest. Spans and
 * the full result are written under --out.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hh"
#include "report.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{
int runSelfTest(unsigned width);
} // namespace perfbench

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out = ".bench_out";
    bool selftest = false;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "ramp_perfbench: " << error
              << "\nusage: ramp_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n"
                 "       ramp_perfbench --selftest\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--out")
                args.out = value;
            else
                usage("unknown argument " + flag);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.seconds < 0)
        usage("--seconds must be non-negative");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const unsigned width =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    if (args.selftest)
        return runSelfTest(width);
    const Workload *workload = findWorkload(args.workload);
    if (workload == nullptr)
        usage("unknown workload '" + args.workload + "'");

    const HostStamp host = hostStamp(width, args.seed);
    std::cout << "host " << host.json() << "\n";
    if (!host.optimised)
        std::cerr << "ramp_perfbench: warning: not an optimised build ("
                  << host.buildType << "); timings are not comparable\n";

    ramp::runner::ThreadPool pool(width);
    Tracer off;
    Tracer tracer(true);
    const auto context = [&](Tracer &with) {
        Context ctx;
        ctx.seed = args.seed;
        ctx.pool = &pool;
        ctx.tracer = &with;
        return ctx;
    };
    Round warmup;
    std::vector<Round> untraced;
    std::vector<Round> traced;
    std::vector<std::vector<Span>> spans;

    const auto start = Clock::now();
    for (int i = 0;; ++i) {
        const bool with_trace = args.trace && i % 2 == 0 && i > 0;
        tracer.clear();
        Round round = workload->run(context(with_trace ? tracer : off));
        std::cerr << "round " << i << (with_trace ? " traced" : "")
                  << ": wall " << round.wallS << " s, setup "
                  << round.setupS << " s, digest " << round.digest
                  << "\n";
        if (i == 0) {
            warmup = std::move(round);
            continue;
        }
        if (with_trace) {
            traced.push_back(std::move(round));
            spans.push_back(tracer.spans());
        } else {
            untraced.push_back(std::move(round));
        }
        // Stop when the next round would end nearer past the limit
        // than this one ends before it, so a run lasts about
        // --seconds whatever the round length.
        const bool enough =
            untraced.size() >= 3 && (!args.trace || traced.size() >= 2);
        const double last = with_trace ? traced.back().wallS
                                       : untraced.back().wallS;
        if (enough && secondsSince(start) + last / 2 >= args.seconds)
            break;
    }

    // Correctness: every pass passed its checks and every round of
    // this seed simulated bit-identically.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool same_digest = true;
    const auto check = [&](const Round &round) {
        attempted += round.attempted;
        failed += round.failed;
        same_digest = same_digest && round.digest == warmup.digest;
        for (const std::string &failure : round.failures)
            std::cerr << "check failed: " << failure << "\n";
    };
    check(warmup);
    for (const auto *rounds : {&untraced, &traced})
        for (const Round &round : *rounds)
            check(round);
    if (!same_digest)
        std::cerr << "check failed: rounds of one seed differ\n";
    const bool correct = failed == 0 && same_digest;
    std::cout << "sim_digest " << workload->name << " "
              << warmup.digest << "\n";

    std::vector<Metric> metrics;
    if (args.trace) {
        const LayerBudget budget =
            measureLayers(workload->replay(context(off)), 3);
        metrics = perLayerMetrics(traced, spans, untraced, budget,
                                  width);
    } else {
        metrics = endToEndMetrics(untraced);
    }
    const std::string result =
        resultJson(correct, attempted, failed, metrics);

    // Artifacts: the spans of the last traced round and the result.
    std::error_code error;
    std::filesystem::create_directories(args.out, error);
    const std::string stem = args.out + "/" + workload->name + "_seed" +
                             std::to_string(args.seed) + "_trace" +
                             (args.trace ? "1" : "0");
    const std::size_t rounds = 1 + untraced.size() + traced.size();
    bool written = writeFile(
        stem + ".json", "{\"host\": " + host.json() +
                            ", \"sim_digest\": \"" + warmup.digest +
                            "\", \"rounds\": " + std::to_string(rounds) +
                            ", \"result\": " + result + "}\n");
    if (args.trace)
        written = writeFile(stem + "_spans.json", spansJson(spans.back())) &&
                  written;
    if (!written)
        std::cerr << "ramp_perfbench: warning: cannot write " << stem
                  << "*.json\n";

    std::cout << result << std::endl;
    return 0;
}
