/**
 * @file
 * Workload dataflow-defcheck: the paper's generic Section 5 framework.
 * DEFINEDCHECK (built on ReachingExpressions) and ReachingDefinitions,
 * each driven by the barrier window schedule on one analysis thread,
 * over the six paper programs at 4 app threads, ~8K events/thread and
 * h = 512: about 300K events a round, within what these whole-run
 * analyses are sized for. Their pass 2 differs from ADDRCHECK's, so a
 * change to ADDRCHECK alone should leave this workload unmoved.
 */

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "butterfly/reaching_defs.hpp"
#include "butterfly/window.hpp"
#include "calibration.hpp"
#include "lifeguards/defcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bfly;

namespace {

constexpr unsigned kThreads = 4;
constexpr std::size_t kEpoch = 512;

WorkloadConfig
workloadConfig(const Options &opt, std::size_t program)
{
    WorkloadConfig cfg;
    cfg.numThreads = kThreads;
    cfg.instrPerThread = opt.quick ? 2000 : 8000;
    cfg.phaseEvents = 9000;
    cfg.warmupNops = 3 * kEpoch;
    cfg.seed = programSeed(program);
    return cfg;
}

struct Built
{
    Workload workload;
    Trace trace;
    std::unique_ptr<EpochLayout> layout;
};

Built
build(const Options &opt, std::size_t index, Tracer &tracer)
{
    Built b;
    {
        Tracer::Scope span(tracer, "workloads.generate");
        b.workload =
            paperWorkloads()[index].second(workloadConfig(opt, index));
    }
    {
        Tracer::Scope span(tracer, "memmodel.interleave");
        Rng rng(mixSeed(opt.seed, 300 + index));
        b.trace = interleave(b.workload.programs, InterleaveConfig{}, rng);
    }
    {
        Tracer::Scope span(tracer, "trace.slice");
        b.layout = std::make_unique<EpochLayout>(
            EpochLayout::byGlobalSeq(b.trace, kEpoch * kThreads));
    }
    return b;
}

/** Definitions of one location in recorded (gseq) order. */
using DefHistory = std::vector<std::pair<std::uint64_t, DefId>>;

struct Program
{
    std::string name;
    DefCheckConfig defcheck;
    std::unique_ptr<EpochLayout> layout;
    std::size_t events = 0;
    std::vector<ErrorRecord> oracleErrors;
    /** The recorded interleaving's definitions, per location. */
    std::unordered_map<Addr, DefHistory> defs;
    std::size_t flags = 0; ///< DEFINEDCHECK flags of the first run
    std::size_t falsePositives = 0;
    Series sessions;
};

/**
 * Count (block, location) pairs whose recorded reaching definition is
 * missing from the block's reaching-definitions IN. The recorded
 * interleaving is itself a valid ordering, so the definition that
 * reached each block's entry in it must be in IN (a may-analysis).
 */
std::size_t
missingReachingDefs(const Program &p, const ReachingDefinitions &rd,
                    bool alterFirst)
{
    std::size_t missing = 0;
    const EpochLayout &layout = *p.layout;
    for (EpochId l = 0; l < layout.numEpochs(); ++l) {
        for (ThreadId t = 0; t < layout.numThreads(); ++t) {
            const BlockView block = layout.block(l, t);
            if (block.empty())
                continue;
            const std::uint64_t entry = block.events.front().gseq;
            const DefSet &in = rd.blockResults(l, t).in;
            for (const Event &e : block.events) {
                const auto it = p.defs.find(e.addr);
                if (it == p.defs.end())
                    continue;
                const DefHistory &h = it->second;
                auto pos = std::lower_bound(
                    h.begin(), h.end(),
                    std::pair<std::uint64_t, DefId>{entry, 0});
                if (pos == h.begin())
                    continue; // no definition before the block
                DefId d = std::prev(pos)->second;
                if (alterFirst) {
                    d = InstrId{l, t, 0xfffffff0u}.pack(); // no such def
                    alterFirst = false;
                }
                missing += !in.contains(d);
            }
        }
    }
    return missing;
}

Program
buildProgram(const Options &opt, std::size_t index, Tracer &tracer,
             Outcome &out)
{
    Program p;
    p.name = paperWorkloads()[index].first;
    Built b = build(opt, index, tracer);
    out.check(sameEventsAsGenerated(b.workload.programs, b.trace),
              p.name + ": interleaved trace differs from generated events");
    p.defcheck.heapBase = b.workload.heapBase;
    p.defcheck.heapLimit = b.workload.heapLimit;
    p.events = b.trace.instructionCount();

    DefCheckOracle oracle(p.defcheck);
    {
        Tracer::Scope span(tracer, "lifeguards.defcheck_oracle");
        oracle.runOnTrace(b.trace);
    }
    p.oracleErrors = oracle.errors().records();

    p.layout = std::move(b.layout);
    for (EpochId l = 0; l < p.layout->numEpochs(); ++l) {
        for (ThreadId t = 0; t < p.layout->numThreads(); ++t) {
            const BlockView block = p.layout->block(l, t);
            for (InstrOffset i = 0; i < block.size(); ++i) {
                const Event &e = block.events[i];
                if (const auto loc = defaultDefines(e))
                    p.defs[*loc].push_back(
                        {e.gseq, InstrId{l, t, i}.pack()});
            }
        }
    }
    for (auto &[loc, h] : p.defs)
        std::sort(h.begin(), h.end());
    return p;
}

} // namespace

void
probeDataflowDefcheck(const Options &opt)
{
    Tracer tracer(false);
    for (std::size_t i = 0; i < paperWorkloads().size(); ++i) {
        Built b = build(opt, i, tracer);
        DefCheckConfig cfg;
        cfg.heapBase = b.workload.heapBase;
        cfg.heapLimit = b.workload.heapLimit;
        {
            ButterflyDefCheck defcheck(*b.layout, cfg);
            WindowSchedule().run(*b.layout, defcheck);
        }
        ReachingDefinitions rd(b.layout->numThreads());
        WindowSchedule().run(*b.layout, rd);
    }
}

Outcome
runDataflowDefcheck(const Options &opt, Tracer &tracer)
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
    std::uint64_t blocks1 = 0, blocks2 = 0;
    const Clock::time_point loopStart = Clock::now();
    while (rounds == 0 ||
           (!opt.quick && secondsSince(loopStart) < opt.seconds)) {
        Tracer::Scope round(tracer, "round");
        for (Program &p : programs) {
            // One session: the trace through both analyses.
            std::vector<ErrorRecord> flagged;
            std::unique_ptr<ReachingDefinitions> rd;
            p.sessions.push(cal.time([&] {
                ButterflyDefCheck defcheck(*p.layout, p.defcheck);
                rd = std::make_unique<ReachingDefinitions>(
                    p.layout->numThreads());
                if (tracer.enabled()) {
                    timedSchedule(*p.layout, defcheck, tracer,
                                  "lifeguards.defcheck.pass1",
                                  "lifeguards.defcheck.pass2",
                                  "lifeguards.defcheck.finalize", &blocks1,
                                  &blocks2);
                    timedSchedule(*p.layout, *rd, tracer,
                                  "butterfly.reaching_defs.pass1",
                                  "butterfly.reaching_defs.pass2",
                                  "butterfly.reaching_defs.finalize",
                                  &blocks1, &blocks2);
                } else {
                    WindowSchedule().run(*p.layout, defcheck);
                    WindowSchedule().run(*p.layout, *rd);
                }
                flagged = defcheck.errors().records();
            }));
            sessions.push({p.sessions.raw.back(),
                           p.sessions.calibrated.back()});
            ++out.attempted;

            if (rounds == 0) {
                p.flags = flagged.size();
                p.falsePositives = falsePositives(flagged, p.oracleErrors);
            }
            out.check(flagged.size() == p.flags,
                      p.name + ": DEFINEDCHECK flags differ between runs");
            if (opt.inject == "drop-flag")
                flagged = withoutCatchOf(flagged, p.oracleErrors,
                                         p.defcheck.granularity);
            out.check(missedErrors(flagged, p.oracleErrors,
                                   p.defcheck.granularity) == 0,
                      p.name + ": DEFINEDCHECK missed an oracle error");
            out.check(missingReachingDefs(p, *rd, opt.inject ==
                                                      "alter-reference") ==
                          0,
                      p.name + ": a definition reaching a block's entry in "
                               "the recorded interleaving is not in its IN");
        }
        ++rounds;
    }

    // Each session monitors its program's events twice, once per
    // analysis.
    double events = 0, busyRaw = 0, busy = 0;
    for (const Program &p : programs) {
        events += 2.0 * static_cast<double>(p.events);
        busyRaw += median(p.sessions.raw);
        busy += median(p.sessions.calibrated);
        out.addDetail("session." + p.name + "_s",
                      median(p.sessions.calibrated), "s", p.sessions.size());
    }

    if (!tracer.enabled()) {
        addEndToEnd(out, cal, setup, events, busyRaw, busy, sessions,
                    peakRssOfProbe(opt));
        return out;
    }

    const double f = cal.typicalFactor();
    const double perRound = f / static_cast<double>(rounds);
    const auto loop = [&](const char *a, const char *b) {
        return perRound * (since(tracer, loopBase, a) +
                           since(tracer, loopBase, b));
    };
    LayerFigures lf;
    lf.kernelRaw = cal.medianKernel();
    lf.generate = f * tracer.total("workloads.generate");
    lf.interleave = f * tracer.total("memmodel.interleave");
    lf.slice = f * tracer.total("trace.slice");
    lf.oracle = f * tracer.total("lifeguards.defcheck_oracle");
    lf.schedule = perRound * since(tracer, loopBase, "butterfly.schedule");
    lf.pass1 = loop("lifeguards.defcheck.pass1",
                    "butterfly.reaching_defs.pass1");
    lf.pass2 = loop("lifeguards.defcheck.pass2",
                    "butterfly.reaching_defs.pass2");
    lf.finalize = loop("lifeguards.defcheck.finalize",
                       "butterfly.reaching_defs.finalize");
    lf.blocksPass1 = blocks1 / rounds;
    lf.blocksPass2 = blocks2 / rounds;
    for (const Program &p : programs) {
        lf.events += p.events;
        lf.epochs += p.layout->numEpochs();
        lf.flags += p.flags;
        lf.oracleErrors += p.oracleErrors.size();
        lf.falsePositives += p.falsePositives;
    }
    addPerLayer(out, lf);
    for (const char *layer :
         {"lifeguards.defcheck.pass1", "lifeguards.defcheck.pass2",
          "lifeguards.defcheck.finalize", "butterfly.reaching_defs.pass1",
          "butterfly.reaching_defs.pass2",
          "butterfly.reaching_defs.finalize"})
        out.addDetail(std::string(layer) + "_s",
                      perRound * since(tracer, loopBase, layer), "s");
    out.addDetail("lifeguards.defcheck_oracle_s", lf.oracle, "s");
    out.addDetail("traced.events_per_s", events / busy, "events/s");
    out.addDetail("traced.session_p50_s",
                  hdQuantile(sessions.calibrated, 0.5), "s",
                  sessions.size());
    return out;
}

} // namespace perfbench
