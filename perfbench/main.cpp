/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--quick] [--inject FAULT]
 *
 * Workloads: addrcheck-paper, dataflow-defcheck, service-loopback (see
 * README.md). Prints each metric with its unit and sample count, then,
 * as the last line, one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics untraced, the per-layer metrics
 * with --trace 1, which also writes perfbench-NAME.trace.json. Exits 1
 * if any check of the program's outputs fails.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload addrcheck-paper|"
                 "dataflow-defcheck|service-loopback\n"
                 "                 --seed N --seconds S --trace 0|1\n"
                 "                 [--quick] [--inject drop-flag|"
                 "drop-oracle-error|alter-reference]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            opt.trace = value() != "0";
        else if (arg == "--quick")
            opt.quick = true;
        else if (arg == "--inject")
            opt.inject = value();
        else if (arg == "--rss-probe")
            opt.rssProbe = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opt.workload != "addrcheck-paper" &&
        opt.workload != "dataflow-defcheck" &&
        opt.workload != "service-loopback")
        usage("unknown or missing --workload");
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");
    if (!opt.inject.empty() && opt.inject != "drop-flag" &&
        opt.inject != "drop-oracle-error" && opt.inject != "alter-reference")
        usage("unknown --inject fault");
    opt.traceOut = "perfbench-" + opt.workload + ".trace.json";
    return opt;
}

/** Digits enough that no measured time prints identically by rounding. */
void
printJson(const Outcome &out)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

double
peakRssOfProbe(const Options &opt)
{
    const std::string cmd =
        std::string(kMallocEnv) + " '" + selfExe() + "' --workload " +
        opt.workload + " --seed " + std::to_string(opt.seed) +
        " --rss-probe" + (opt.quick ? " --quick" : "");
    std::FILE *child = ::popen(cmd.c_str(), "r");
    if (!child)
        return 0;
    double mib = 0;
    if (std::fscanf(child, "peak_rss_mib %lf", &mib) != 1)
        mib = 0;
    return ::pclose(child) == 0 ? mib : 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);

    if (opt.rssProbe) {
        if (opt.workload == "addrcheck-paper")
            probeAddrcheckPaper(opt);
        else if (opt.workload == "dataflow-defcheck")
            probeDataflowDefcheck(opt);
        std::printf("peak_rss_mib %.6f\n", peakRssMib());
        return 0;
    }

    Tracer tracer(opt.trace);
    Outcome out;
    if (opt.workload == "addrcheck-paper")
        out = runAddrcheckPaper(opt, tracer);
    else if (opt.workload == "dataflow-defcheck")
        out = runDataflowDefcheck(opt, tracer);
    else
        out = runServiceLoopback(opt, tracer);

    if (opt.trace) {
        if (tracer.writeChromeTrace(opt.traceOut))
            std::printf("perfbench: wrote %zu spans to %s\n",
                        tracer.spanCount(), opt.traceOut.c_str());
        else
            out.failures.push_back("could not write " + opt.traceOut);
    }
    std::printf("perfbench: workload=%s seed=%llu trace=%d attempted=%llu "
                "failed=%llu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (const Metric &m : out.metrics)
        std::printf("metric %-32s %14.6g %-9s n=%zu\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    for (const Metric &m : out.detail)
        std::printf("detail %-32s %14.6g %-9s n=%zu\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    for (const std::string &f : out.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    printJson(out);
    return out.failures.empty() ? 0 : 1;
}
