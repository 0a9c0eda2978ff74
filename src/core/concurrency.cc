#include "core/concurrency.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace visa
{

SlackScheduler::SlackScheduler(DvsRuntime &rt, const Program &bg_prog,
                               const DvsTable &dvs)
    : rt_(rt), bgFreq_(dvs.minFreq()), period_(rt.deadlineSeconds()),
      bgRig_(bg_prog),
      bgCpu_(bgRig_.build<SimpleCpu>(std::nullopt, false, bgFreq_))
{
}

TaskStats
SlackScheduler::runPeriod()
{
    TaskStats ts = rt_.runTask();
    if (!ts.deadlineMet)
        return ts;    // no slack to give away (and a safety bug)

    const double slack =
        std::max(0.0, period_ - ts.completionSeconds);
    Cycles remaining =
        static_cast<Cycles>(slack * bgFreq_ * 1e6);
    bg_.slackSeconds += slack;
    bg_.cyclesGranted += remaining;

    while (remaining > 0) {
        const Cycles before = bgCpu_.cycles();
        RunResult r = bgCpu_.run(remaining);
        const Cycles used = bgCpu_.cycles() - before;
        bg_.instructionsRetired += bgCpu_.retired() - bgRetiredBase_;
        bgRetiredBase_ = bgCpu_.retired();
        remaining -= std::min(used, remaining);
        if (r.reason == StopReason::Halted) {
            ++bg_.completions;
            bgCpu_.resetForTask();
            bgRetiredBase_ = 0;
        } else {
            break;    // period boundary: the hard task preempts
        }
    }
    return ts;
}

} // namespace visa
