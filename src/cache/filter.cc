#include "cache/filter.hh"

#include "common/issue_order.hh"
#include "common/logging.hh"

namespace ramp
{

double
FilterStats::passRatio() const
{
    if (cpuAccesses == 0)
        return 0.0;
    return static_cast<double>(memAccesses) /
           static_cast<double>(cpuAccesses);
}

std::vector<CoreTrace>
filterTraces(const std::vector<CoreTrace> &cpu_traces,
             const HierarchyConfig &config, FilterStats *stats)
{
    if (static_cast<int>(cpu_traces.size()) > config.cores)
        ramp_fatal("more traces than cores in hierarchy config");

    CacheHierarchy hierarchy(config);
    FilterStats local;

    const std::size_t cores = cpu_traces.size();
    std::vector<std::size_t> cursor(cores, 0);
    std::vector<std::uint64_t> pending_gap(cores, 0);
    std::vector<CoreTrace> out(cores);

    // Interleave cores by retired instruction count so the shared L2
    // sees the streams merged the way a real multicore would: the
    // core whose next request retires first goes next, the lowest
    // index on ties (common/issue_order.hh).
    std::vector<std::uint64_t> next_done(cores, finishedCore);
    for (std::size_t core = 0; core < cores; ++core)
        if (!cpu_traces[core].empty())
            next_done[core] = cpu_traces[core][0].instructions();

    for (std::size_t core = earliestReady(next_done); core < cores;
         core = earliestReady(next_done)) {
        const std::uint64_t done = next_done[core];
        const MemRequest &req = cpu_traces[core][cursor[core]];
        ++local.cpuAccesses;

        const auto result = hierarchy.accessData(
            req.core, req.addr, req.isWrite);
        if (result.numAccesses == 0) {
            // Fully absorbed: fold its instructions into the gap of
            // the next surviving record.
            pending_gap[core] += req.instructions();
        } else {
            for (int i = 0; i < result.numAccesses; ++i) {
                const auto &access = result.accesses[i];
                MemRequest mem;
                mem.addr = access.addr;
                mem.isWrite = access.isWrite;
                mem.core = req.core;
                if (i == 0) {
                    const std::uint64_t gap =
                        pending_gap[core] + req.gap;
                    mem.gap = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(gap, UINT32_MAX));
                    pending_gap[core] = 0;
                } else {
                    mem.gap = 0;
                    ++local.writebacks;
                }
                out[core].push_back(mem);
                ++local.memAccesses;
            }
        }

        next_done[core] =
            ++cursor[core] < cpu_traces[core].size()
                ? done + cpu_traces[core][cursor[core]].instructions()
                : finishedCore;
    }

    // Teardown: drain dirty lines as trailing writebacks on core 0.
    if (!out.empty()) {
        for (const auto &access : hierarchy.drain()) {
            MemRequest mem;
            mem.addr = access.addr;
            mem.isWrite = true;
            mem.core = 0;
            mem.gap = 0;
            out[0].push_back(mem);
            ++local.memAccesses;
            ++local.writebacks;
        }
    }

    if (stats != nullptr)
        *stats = local;
    return out;
}

} // namespace ramp
