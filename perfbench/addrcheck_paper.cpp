/**
 * @file
 * Workload addrcheck-paper: the paper's Fig. 11 path. runSession with its
 * default configuration (ADDRCHECK, SC, barrier schedule) over the six
 * paper programs, 4 app threads, ~200K events/thread, h = 2048; and the
 * window schedule alone over each program's pre-built layout, which
 * gives events_per_s.
 *
 * Each program carries four planted intra-thread bugs (use-after-free,
 * double free, wild read), so that the zero-false-negative check has
 * errors to catch: the paper programs themselves are race-free.
 */

#include <memory>

#include "butterfly/window.hpp"
#include "calibration.hpp"
#include "harness/session.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "memmodel/interleaver.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bfly;

namespace {

constexpr unsigned kThreads = 4;
constexpr std::size_t kEpoch = 2048;

std::size_t
instrPerThread(const Options &opt)
{
    return opt.quick ? 20000 : 200000;
}

template <std::size_t I>
Workload
plantedProgram(const WorkloadConfig &config)
{
    Workload w = paperWorkloads()[I].second(config);
    plantBugs(w, config.seed);
    return w;
}

constexpr WorkloadFactory kPlanted[] = {
    plantedProgram<0>, plantedProgram<1>, plantedProgram<2>,
    plantedProgram<3>, plantedProgram<4>, plantedProgram<5>};

SessionConfig
sessionConfig(const Options &opt, std::size_t program)
{
    SessionConfig cfg;
    cfg.factory = kPlanted[program];
    cfg.workload.numThreads = kThreads;
    cfg.workload.instrPerThread = instrPerThread(opt);
    cfg.workload.phaseEvents = 9000;
    cfg.workload.warmupNops = 3 * kEpoch;
    cfg.workload.seed = programSeed(program);
    cfg.epochSize = kEpoch;
    cfg.interleaveSeed = mixSeed(opt.seed, 100 + program);
    return cfg;
}

/** One paper program, built and checked in set-up. */
struct Program
{
    std::string name;
    SessionConfig config;
    AddrCheckConfig addrcheck;
    std::unique_ptr<EpochLayout> layout;
    std::size_t events = 0;
    // Reference figures from the stage-by-stage recomposition.
    std::size_t flags = 0;
    std::size_t oracleErrors = 0;
    std::size_t falsePositives = 0;
    std::size_t epochs = 0;
    std::uint64_t blocksPass1 = 0;
    std::uint64_t blocksPass2 = 0;
    Series schedule;
};

/**
 * runSession's stages, called one by one, with the checks that need the
 * intermediate results.
 */
Program
buildProgram(const Options &opt, std::size_t index, Tracer &tracer,
             Outcome &out)
{
    Program p;
    p.name = paperWorkloads()[index].first;
    p.config = sessionConfig(opt, index);
    const SessionConfig &cfg = p.config;

    Workload w = [&] {
        Tracer::Scope span(tracer, "workloads.generate");
        return cfg.factory(cfg.workload);
    }();
    Trace trace = [&] {
        Tracer::Scope span(tracer, "memmodel.interleave");
        Rng rng(cfg.interleaveSeed);
        InterleaveConfig icfg;
        icfg.model = cfg.model;
        return interleave(w.programs, icfg, rng);
    }();
    out.check(sameEventsAsGenerated(w.programs, trace),
              p.name + ": interleaved trace differs from generated events");
    p.layout = [&] {
        Tracer::Scope span(tracer, "trace.slice");
        return std::make_unique<EpochLayout>(EpochLayout::byGlobalSeq(
            trace, cfg.epochSize * trace.numThreads()));
    }();
    p.events = trace.instructionCount();
    p.epochs = p.layout->numEpochs();

    p.addrcheck.granularity = cfg.granularity;
    p.addrcheck.heapBase = w.heapBase;
    p.addrcheck.heapLimit = w.heapLimit;
    ButterflyAddrCheck butterfly(*p.layout, p.addrcheck);
    timedSchedule(*p.layout, butterfly, tracer, "lifeguards.addrcheck.pass1",
                  "lifeguards.addrcheck.pass2",
                  "lifeguards.addrcheck.finalize", &p.blocksPass1,
                  &p.blocksPass2);

    AddrCheckOracle oracle(p.addrcheck);
    {
        Tracer::Scope span(tracer, "lifeguards.addrcheck_oracle");
        oracle.runOnTrace(trace);
    }
    std::vector<ErrorRecord> flagged = butterfly.errors().records();
    std::vector<ErrorRecord> errors = oracle.errors().records();
    if (opt.inject == "drop-flag")
        flagged = withoutCatchOf(flagged, errors, cfg.granularity);
    if (opt.inject == "drop-oracle-error" && !errors.empty())
        errors.erase(errors.begin());

    p.flags = butterfly.errors().size();
    p.oracleErrors = errors.size();
    p.falsePositives = falsePositives(flagged, errors);
    if (opt.inject == "alter-reference")
        ++p.flags;
    out.check(p.oracleErrors >= kPlantedBugs,
              p.name + ": oracle found fewer errors than were planted");
    out.check(missedErrors(flagged, errors, cfg.granularity) == 0,
              p.name + ": butterfly ADDRCHECK missed an oracle error");

    // FP(h) <= FP(4h): coarser epochs may only add false positives.
    const EpochLayout coarse = EpochLayout::byGlobalSeq(
        trace, 4 * cfg.epochSize * trace.numThreads());
    ButterflyAddrCheck coarseRun(coarse, p.addrcheck);
    WindowSchedule().run(coarse, coarseRun);
    out.check(p.falsePositives <=
                  falsePositives(coarseRun.errors().records(), errors),
              p.name + ": FP(h) > FP(4h)");

    if (tracer.enabled()) {
        PerfInputs pin;
        pin.trace = &trace;
        pin.layout = p.layout.get();
        pin.butterfly = &butterfly;
        pin.addrcheck = p.addrcheck;
        pin.costs = cfg.costs;
        pin.logBufferBytes = cfg.logBufferBytes;
        Tracer::Scope span(tracer, "harness.perf_model");
        computePerformance(pin);
    }
    return p;
}

} // namespace

void
probeAddrcheckPaper(const Options &opt)
{
    for (std::size_t i = 0; i < paperWorkloads().size(); ++i)
        runSession(sessionConfig(opt, i));
}

Outcome
runAddrcheckPaper(const Options &opt, Tracer &tracer)
{
    Outcome out;
    std::vector<Program> programs;
    {
        Tracer::Scope span(tracer, "setup");
        for (std::size_t i = 0; i < paperWorkloads().size(); ++i)
            programs.push_back(buildProgram(opt, i, tracer, out));
    }
    const double setupRaw = secondsSince(opt.start);
    Calibrator cal;
    const Timed setup = cal.scale(setupRaw);

    const auto loopBase = tracer.totals();
    Series sessions;
    std::size_t rounds = 0;
    const Clock::time_point loopStart = Clock::now();
    while (rounds == 0 ||
           (!opt.quick && secondsSince(loopStart) < opt.seconds)) {
        Tracer::Scope round(tracer, "round");
        for (Program &p : programs) {
            SessionResult r;
            sessions.push(cal.time([&] {
                Tracer::Scope span(tracer, "harness.run_session");
                r = runSession(p.config);
            }));
            ++out.attempted;
            out.check(r.butterflyErrorCount == p.flags &&
                          r.oracleErrorCount == p.oracleErrors &&
                          r.accuracy.falsePositives == p.falsePositives &&
                          r.epochs == p.epochs,
                      p.name + ": runSession disagrees with the "
                               "stage-by-stage recomposition");
            out.check(r.accuracy.falseNegatives == 0,
                      p.name + ": runSession reports false negatives");

            std::size_t flags = 0;
            p.schedule.push(cal.time([&] {
                ButterflyAddrCheck butterfly(*p.layout, p.addrcheck);
                if (tracer.enabled())
                    timedSchedule(*p.layout, butterfly, tracer,
                                  "lifeguards.addrcheck.pass1",
                                  "lifeguards.addrcheck.pass2",
                                  "lifeguards.addrcheck.finalize");
                else
                    WindowSchedule().run(*p.layout, butterfly);
                flags = butterfly.errors().size();
            }));
            ++out.attempted;
            out.check(flags == p.flags,
                      p.name + ": window schedule flags differ from the "
                               "reference run");
        }
        ++rounds;
    }

    double events = 0, busyRaw = 0, busy = 0;
    for (const Program &p : programs) {
        events += static_cast<double>(p.events);
        busyRaw += median(p.schedule.raw);
        busy += median(p.schedule.calibrated);
        out.addDetail("schedule." + p.name + "_s",
                      median(p.schedule.calibrated), "s", p.schedule.size());
    }

    if (!tracer.enabled()) {
        addEndToEnd(out, cal, setup, events, busyRaw, busy, sessions,
                    peakRssOfProbe(opt));
        return out;
    }

    const double f = cal.typicalFactor();
    const double perRound = f / static_cast<double>(rounds);
    LayerFigures lf;
    lf.kernelRaw = cal.medianKernel();
    lf.generate = f * tracer.total("workloads.generate");
    lf.interleave = f * tracer.total("memmodel.interleave");
    lf.slice = f * tracer.total("trace.slice");
    lf.oracle = f * tracer.total("lifeguards.addrcheck_oracle");
    lf.schedule = perRound * since(tracer, loopBase, "butterfly.schedule");
    lf.pass1 =
        perRound * since(tracer, loopBase, "lifeguards.addrcheck.pass1");
    lf.pass2 =
        perRound * since(tracer, loopBase, "lifeguards.addrcheck.pass2");
    lf.finalize =
        perRound * since(tracer, loopBase, "lifeguards.addrcheck.finalize");
    for (const Program &p : programs) {
        lf.events += p.events;
        lf.epochs += p.epochs;
        lf.blocksPass1 += p.blocksPass1;
        lf.blocksPass2 += p.blocksPass2;
        lf.flags += p.flags;
        lf.oracleErrors += p.oracleErrors;
        lf.falsePositives += p.falsePositives;
    }
    addPerLayer(out, lf);
    out.addDetail("harness.perf_model_s",
                  f * tracer.total("harness.perf_model"), "s");
    out.addDetail("harness.run_session_s",
                  perRound * since(tracer, loopBase, "harness.run_session"),
                  "s");
    out.addDetail("lifeguards.addrcheck.pass1_s", lf.pass1, "s");
    out.addDetail("lifeguards.addrcheck.pass2_s", lf.pass2, "s");
    out.addDetail("lifeguards.addrcheck.finalize_s", lf.finalize, "s");
    out.addDetail("lifeguards.addrcheck_oracle_s", lf.oracle, "s");
    out.addDetail("traced.events_per_s", events / busy, "events/s");
    out.addDetail("traced.session_p50_s",
                  hdQuantile(sessions.calibrated, 0.5), "s",
                  sessions.size());
    return out;
}

} // namespace perfbench
